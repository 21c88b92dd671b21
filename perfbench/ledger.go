package main

// The stage ledger replays one workload's own inputs through each layer's
// public API in pipeline order — source read, frame parse, flow table, TLS
// inspection, DNS decode, resolver insert and lookup, flow store, window
// analytics — and times every call batch with a span. The stages' busy
// time per packet adds up against the untraced end-to-end ns/pkt; what
// they do not explain is core.residual_ns_per_pkt (dispatch, rings, sink,
// scheduling).

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/analytics"
	"repro/internal/analytics/stream"
	"repro/internal/dnswire"
	"repro/internal/flowdb"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/orgdb"
	"repro/internal/resolver"
	"repro/internal/tlswire"
)

// ledgerInput is what a workload's pipeline reads, and how.
type ledgerInput struct {
	// pcap, when set, is read with netio.Reader.ReadBlockRef (the batch
	// CLI path). Otherwise pkts are read from memory: through a
	// netio.RefAdapter that copies frames into the block arena when
	// arenaCopy is set (the sharded serve path), as plain blocks if not.
	pcap      string
	pkts      []netio.Packet
	arenaCopy bool

	resolver   resolver.Config
	clientNets []netip.Prefix
	// checkpoint, when set, is restored before replay and a new one is
	// written after it, as Server.Serve does.
	checkpoint string
	// window > 0 replays the flow store as flowdb.Windowed, with the
	// streaming analytics on ObserveWindow when analytics is set; 0 uses a
	// batch flowdb.DB.
	window    time.Duration
	analytics bool
	orgs      *orgdb.DB
	dir       string
}

// ledgerOut is one replay's counts and timings.
type ledgerOut struct {
	self                  [numSpanKinds]int64
	pkts                  uint64
	arenaGets, arenaAlloc uint64
	frames, malformed     uint64
	flowPkts, flowsMade   uint64
	activePeak            int
	heapPerFlow           float64
	tlsCalls, tlsUseful   uint64
	dnsMsgs, dnsBad       uint64
	internNames           int
	inserts, lookups      uint64
	hits, used, responses uint64
	evictions             uint64
	flowsOut              uint64
	windows               uint64
	windowFlushMs         []float64
	sweeps                uint64
	ckptLoadNs            int64
	ckptWriteNs           int64
	restored              int
}

// block is the number of calls one stage span covers.
const block = 256

type decodedPkt struct {
	info layers.Decoded
	at   time.Duration
	seq  int
}

type insertOp struct {
	seq    int
	client netip.Addr
	fqdn   string
	addrs  []netip.Addr
	at     time.Duration
}

type lookupOp struct {
	seq            int
	client, server netip.Addr
	id             int
}

type finished struct {
	rec flows.Record
	id  int
}

// memSource reads in-memory packets as a plain, non-stable block source.
type memSource struct{ sliceBlocks }

func (m *memSource) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	if n, err := m.ReadBlock(one[:]); n == 0 {
		return netio.Packet{}, err
	}
	return one[0], nil
}

// replay runs every stage once over in, recording spans in tr.
func replay(in *ledgerInput, tr *tracer) (*ledgerOut, error) {
	out := &ledgerOut{}
	frames, err := replayNetio(in, tr, out)
	if err != nil {
		return nil, err
	}
	out.pkts = uint64(len(frames))
	dns, flowPkts := replayLayers(frames, tr, out)
	inserts := replayDNS(dns, tr, out)
	lookups, fin, err := replayFlows(in, flowPkts, tr, out)
	if err != nil {
		return nil, err
	}
	replayTLS(flowPkts, tr, out)
	labels, hits, err := replayResolver(in, inserts, lookups, tr, out)
	if err != nil {
		return nil, err
	}
	replayFlowDB(in, fin, labels, hits, tr, out)
	out.self = tr.selfNs(calibrateClock())
	return out, nil
}

func replayNetio(in *ledgerInput, tr *tracer, out *ledgerOut) ([]netio.Packet, error) {
	pool := netio.DefaultBlockPool()
	before := pool.Stats()
	buf := make([]netio.Packet, block)
	var frames []netio.Packet
	var arena []byte
	keep := func(ps []netio.Packet) {
		for _, p := range ps {
			off := len(arena)
			arena = append(arena, p.Data...)
			frames = append(frames, netio.Packet{Timestamp: p.Timestamp, Data: arena[off:len(arena):len(arena)]})
		}
	}
	var refs netio.BlockRefSource
	var plain netio.BlockSource
	switch {
	case in.pcap != "":
		f, err := os.Open(in.pcap)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, err := netio.NewReader(f)
		if err != nil {
			return nil, err
		}
		refs = r
	case in.arenaCopy:
		refs = netio.NewRefAdapter(&memSource{sliceBlocks{pkts: in.pkts}}, nil)
	default:
		plain = &sliceBlocks{pkts: in.pkts}
	}
	for seq := int32(0); ; seq++ {
		var n int
		var blk *netio.Block
		var err error
		t0 := time.Now()
		if refs != nil {
			n, blk, err = refs.ReadBlockRef(buf)
		} else {
			n, err = plain.ReadBlock(buf)
		}
		tr.add(spanNetio, t0, time.Now(), -1, seq)
		if refs != nil {
			// Frames alias the block: copy them out before it is released.
			keep(buf[:n])
		} else {
			frames = append(frames, buf[:n]...)
		}
		if blk != nil {
			blk.Release(1)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("netio: %w", err)
		}
	}
	if refs != nil {
		// keep may have moved the arena while growing it; re-slice every
		// frame from the final backing array.
		off := 0
		for i := range frames {
			n := len(frames[i].Data)
			frames[i].Data = arena[off : off+n : off+n]
			off += n
		}
	}
	after := pool.Stats()
	out.arenaGets = after.Gets - before.Gets
	out.arenaAlloc = after.Allocs - before.Allocs
	if after.Gets != after.Retired {
		return nil, fmt.Errorf("netio: block arena unbalanced after replay: %d gets, %d retired", after.Gets, after.Retired)
	}
	return frames, nil
}

// replayLayers times Parser.Parse over every frame, then parses again
// untimed to record the decoded packets the later stages consume.
func replayLayers(frames []netio.Packet, tr *tracer, out *ledgerOut) (dns, flowPkts []decodedPkt) {
	var p layers.Parser
	for lo := 0; lo < len(frames); lo += block {
		hi := min(lo+block, len(frames))
		t0 := time.Now()
		for _, f := range frames[lo:hi] {
			_, _ = p.Parse(f.Data) // outcomes are counted in p.Stats
		}
		tr.add(spanLayers, t0, time.Now(), -1, int32(lo/block))
	}
	out.frames, out.malformed = p.Stats.Frames, p.Stats.Malformed
	var rec layers.Parser
	for i, f := range frames {
		info, err := rec.Parse(f.Data)
		if err != nil {
			continue
		}
		d := decodedPkt{info: *info, at: f.Timestamp, seq: i}
		if info.HasUDP && (info.SrcPort == 53 || info.DstPort == 53) {
			dns = append(dns, d)
		} else {
			flowPkts = append(flowPkts, d)
		}
	}
	return dns, flowPkts
}

// replayDNS times Message.Unpack over every UDP/53 payload with a
// pipeline-style interner, then decodes again untimed to record the
// resolver inserts.
func replayDNS(dns []decodedPkt, tr *tracer, out *ledgerOut) []insertOp {
	var m dnswire.Message
	in := dnswire.NewInterner(0)
	m.SetInterner(in)
	for lo := 0; lo < len(dns); lo += block {
		hi := min(lo+block, len(dns))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if m.Unpack(dns[i].info.Payload) != nil {
				out.dnsBad++
			}
		}
		tr.add(spanDNS, t0, time.Now(), -1, int32(lo/block))
	}
	out.dnsMsgs = uint64(len(dns))
	out.internNames = in.Len() + int(in.Resets)*(1<<16)

	var rec dnswire.Message
	rec.SetInterner(dnswire.NewInterner(0))
	var ops []insertOp
	for _, d := range dns {
		if rec.Unpack(d.info.Payload) != nil || !rec.Header.Response {
			continue
		}
		fqdn := rec.QueriedName()
		addrs := rec.AppendAnswerAddrs(nil)
		if fqdn == "" || len(addrs) == 0 {
			continue
		}
		ops = append(ops, insertOp{seq: d.seq, client: d.info.DstIP, fqdn: fqdn, addrs: addrs, at: d.at})
	}
	out.responses = uint64(len(ops))
	return ops
}

// replayFlows times Table.Add over every non-DNS packet, and the idle
// sweeps separately (the table's own amortized sweep rule, driven from
// outside so each sweep gets its own span). It records each new flow's
// resolver lookup and each finished flow.
func replayFlows(in *ledgerInput, pkts []decodedPkt, tr *tracer, out *ledgerOut) ([]lookupOp, []finished, error) {
	lookups := make([]lookupOp, 0, len(pkts))
	fin := make([]finished, 0, len(pkts))
	var live []int
	runtime.GC()
	base := heapNow()
	tab := flows.NewTable(flows.Config{
		ClientNets:       in.clientNets,
		DisableAutoSweep: true,
		OnRecord: func(r flows.Record, h flows.Handle) {
			fin = append(fin, finished{rec: r, id: live[h]})
		},
	})
	onNew := func(k flows.Key, at time.Duration, syn bool, h flows.Handle) {
		for int(h) >= len(live) {
			live = append(live, 0)
		}
		live[h] = len(lookups)
		lookups = append(lookups, lookupOp{client: k.ClientIP, server: k.ServerIP, id: len(lookups), seq: -1})
	}
	const idle = 5 * time.Minute // flows.Config default
	var sweepAt time.Duration
	measured := 0
	sample := func() {
		a := tab.Active()
		if a > out.activePeak {
			out.activePeak = a
		}
		// Weigh the table's heap at growing sizes only: each forced GC
		// costs tens of milliseconds.
		if a >= 1024 && a > measured+measured/2 {
			runtime.GC()
			measured = a
			out.heapPerFlow = float64(heapNow()-base) / float64(a)
		}
	}
	for lo, blk := 0, int32(0); lo < len(pkts); blk++ {
		t0 := time.Now()
		i := lo
		sweep := false
		for ; i < len(pkts) && i < lo+block; i++ {
			p := &pkts[i]
			n := len(lookups)
			tab.Add(&p.info, p.at, onNew)
			if len(lookups) > n {
				lookups[n].seq = p.seq
			}
			if p.at-sweepAt >= idle {
				sweepAt = p.at
				sweep = true
				i++
				break
			}
		}
		tr.add(spanFlows, t0, time.Now(), -1, blk)
		lo = i
		sample()
		if sweep {
			t1 := time.Now()
			tab.FlushIdle(sweepAt)
			tr.add(spanSweep, t1, time.Now(), -1, blk)
			out.sweeps++
		}
	}
	t1 := time.Now()
	tab.FlushAll()
	tr.add(spanSweep, t1, time.Now(), -1, -1)
	out.flowPkts = uint64(len(pkts))
	out.flowsMade = tab.Stats().FlowsCreated
	if int(out.flowsMade) != len(lookups) || len(fin) != len(lookups) {
		return nil, nil, fmt.Errorf("flows: %d created, %d tagged, %d finished", out.flowsMade, len(lookups), len(fin))
	}
	return lookups, fin, nil
}

// replayTLS times tlswire.InspectStream over every TCP payload that looks
// like TLS. Inside the pipeline these calls happen within Table.Add, so
// the ledger reports them as part of flows, not as a stage of their own.
func replayTLS(pkts []decodedPkt, tr *tracer, out *ledgerOut) {
	var payloads [][]byte
	for i := range pkts {
		if p := pkts[i].info.Payload; pkts[i].info.HasTCP && tlswire.LooksLikeTLS(p) {
			payloads = append(payloads, p)
		}
	}
	for lo := 0; lo < len(payloads); lo += block {
		hi := min(lo+block, len(payloads))
		t0 := time.Now()
		for _, p := range payloads[lo:hi] {
			if info := tlswire.InspectStream(p); info.SNI != "" || len(info.CertificateNames) > 0 {
				out.tlsUseful++
			}
		}
		tr.add(spanTLS, t0, time.Now(), -1, int32(lo/block))
	}
	out.tlsCalls = uint64(len(payloads))
}

// replayResolver replays inserts and lookups in packet order through one
// resolver, timing each run of same-kind operations. Lookups mark entries
// used exactly as the tagger does, for the useless-DNS ratio.
func replayResolver(in *ledgerInput, ins []insertOp, lks []lookupOp, tr *tracer, out *ledgerOut) ([]string, []bool, error) {
	r := resolver.New(in.resolver)
	if in.checkpoint != "" {
		t0 := time.Now()
		f, err := os.Open(in.checkpoint)
		if err != nil {
			return nil, nil, err
		}
		entries, err := resolver.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("resolver: reading checkpoint: %w", err)
		}
		r.Restore(entries)
		t1 := time.Now()
		tr.add(spanCkptLoad, t0, t1, -1, -1)
		out.ckptLoadNs = int64(t1.Sub(t0))
		out.restored = len(entries)
	}
	sort.SliceStable(lks, func(i, j int) bool { return lks[i].seq < lks[j].seq })
	labels := make([]string, len(lks))
	hits := make([]bool, len(lks))
	i, j := 0, 0
	for run := int32(0); i < len(ins) || j < len(lks); run++ {
		t0 := time.Now()
		if j >= len(lks) || (i < len(ins) && ins[i].seq < lks[j].seq) {
			stop := len(ins)
			if j < len(lks) {
				stop = sort.Search(len(ins), func(k int) bool { return ins[k].seq > lks[j].seq })
			}
			stop = min(stop, i+block)
			for ; i < stop; i++ {
				r.Insert(ins[i].client, ins[i].fqdn, ins[i].addrs, ins[i].at)
			}
			tr.add(spanInsert, t0, time.Now(), -1, run)
			continue
		}
		n := 0
		for ; j < len(lks) && n < block && (i >= len(ins) || lks[j].seq < ins[i].seq); j, n = j+1, n+1 {
			l := &lks[j]
			if e, ok := r.LookupEntry(l.client, l.server); ok {
				labels[l.id], hits[l.id] = e.FQDN, true
				if !e.Used {
					e.Used = true
					out.used++
				}
			}
		}
		tr.add(spanLookup, t0, time.Now(), -1, run)
	}
	st := r.Stats()
	out.inserts, out.lookups, out.hits, out.evictions = uint64(len(ins)), st.Lookups, st.Hits, st.Evictions
	if in.checkpoint != "" {
		t0 := time.Now()
		if err := writeSnapshotFile(filepath.Join(in.dir, "ledger.ckpt"), r.Snapshot()); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		tr.add(spanCkptWrite, t0, t1, -1, -1)
		out.ckptWriteNs = int64(t1.Sub(t0))
	}
	return labels, hits, nil
}

// writeSnapshotFile writes and syncs a checkpoint, as Server.Serve does at
// drain.
func writeSnapshotFile(path string, entries []resolver.SnapshotEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := resolver.WriteSnapshot(f, entries); err != nil {
		f.Close()
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("syncing checkpoint: %w", err)
	}
	return f.Close()
}

// replayFlowDB stores every finished flow: into a batch DB, or into a
// windowed store whose rotations run the streaming analytics. Each
// rotation's time is one window-flush sample.
func replayFlowDB(in *ledgerInput, fin []finished, labels []string, hits []bool, tr *tracer, out *ledgerOut) {
	recs := make([]flowdb.LabeledFlow, len(fin))
	for i, f := range fin {
		recs[i] = flowdb.LabeledFlow{Record: f.rec, Label: labels[f.id], Labeled: hits[f.id]}
	}
	out.flowsOut = uint64(len(recs))
	if in.window <= 0 {
		db := flowdb.New()
		for lo := 0; lo < len(recs); lo += block {
			hi := min(lo+block, len(recs))
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				db.Add(recs[i])
			}
			tr.add(spanFlowDB, t0, time.Now(), -1, int32(lo/block))
		}
		return
	}
	var cur int32 = -1
	wcfg := flowdb.WindowConfig{Width: in.window}
	if in.analytics {
		pipe := analytics.NewPipeline(stream.StandardQueries(analytics.OrgLookupDB(in.orgs))...)
		wcfg.Observe = func(win flowdb.Window) {
			t0 := time.Now()
			pipe.ObserveWindow(win)
			tr.add(spanAnalytics, t0, time.Now(), cur, int32(win.Index))
		}
	}
	w := flowdb.NewWindowed(wcfg)
	for lo := 0; lo < len(recs); lo += block {
		hi := min(lo+block, len(recs))
		cur = tr.open(spanFlowDB, time.Now(), int32(lo/block))
		for i := lo; i < hi; i++ {
			before := w.WindowsFlushed()
			t0 := time.Now()
			_ = w.Add(recs[i]) // Flush is nil, so Add cannot fail
			if w.WindowsFlushed() != before {
				out.windowFlushMs = append(out.windowFlushMs, float64(time.Since(t0))/1e6)
			}
		}
		tr.close(cur, time.Now())
	}
	cur = tr.open(spanFlowDB, time.Now(), -1)
	t0 := time.Now()
	_ = w.Close() // as above
	out.windowFlushMs = append(out.windowFlushMs, float64(time.Since(t0))/1e6)
	tr.close(cur, time.Now())
	out.windows = w.WindowsFlushed()
}

// ledgerReplays is how many times the stage replay runs; each per-layer
// figure is the median over them.
const ledgerReplays = 3

// ledgerMetrics replays the stages and reports the per-layer metrics and
// the ledger against e2eNsPerPkt. It returns the first replay's spans.
func ledgerMetrics(in *ledgerInput, e2eNsPerPkt float64, m metricSet) (*tracer, error) {
	var outs []*ledgerOut
	var first *tracer
	for i := 0; i < ledgerReplays; i++ {
		tr := newTracer()
		runtime.GC()
		o, err := replay(in, tr)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = tr
		}
		outs = append(outs, o)
	}
	med := func(f func(*ledgerOut) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return median(xs)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	per := func(ns int64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	o := outs[0]
	n := len(outs)
	m.set("netio.read_ns_per_pkt", med(func(o *ledgerOut) float64 { return per(o.self[spanNetio], o.pkts) }), "ns", int(o.pkts), "")
	m.set("netio.arena_reuse_ratio", 1-ratio(o.arenaAlloc, o.arenaGets), "ratio", int(o.arenaGets), "1 - allocs/gets over one replay")
	m.set("layers.parse_ns_per_pkt", med(func(o *ledgerOut) float64 { return per(o.self[spanLayers], o.frames) }), "ns", int(o.frames), "")
	m.set("layers.malformed_ratio", ratio(o.malformed, o.frames), "ratio", int(o.frames), "guard")
	m.set("flows.add_ns_per_pkt", med(func(o *ledgerOut) float64 { return per(o.self[spanFlows], o.flowPkts) }), "ns", int(o.flowPkts), "Table.Add, incl. TLS inspection")
	m.set("flows.sweep_ms", med(func(o *ledgerOut) float64 { return float64(o.self[spanSweep]) / 1e6 }), "ms", int(o.sweeps), "all idle sweeps and the final flush of one pass")
	m.set("flows.active_peak", float64(o.activePeak), "count", n, "")
	m.set("flows.heap_bytes_per_flow", med(func(o *ledgerOut) float64 { return o.heapPerFlow }), "B", n, "live heap after GC over active flows, at the largest weighed table")
	m.set("flows.created", float64(o.flowsMade), "count", n, "")
	m.set("tlswire.inspect_ns_per_call", med(func(o *ledgerOut) float64 { return per(o.self[spanTLS], o.tlsCalls) }), "ns", int(o.tlsCalls), "")
	m.set("tlswire.useful_ratio", ratio(o.tlsUseful, o.tlsCalls), "ratio", int(o.tlsCalls), "calls that found an SNI or certificate name")
	m.set("dnswire.unpack_ns_per_msg", med(func(o *ledgerOut) float64 { return per(o.self[spanDNS], o.dnsMsgs) }), "ns", int(o.dnsMsgs), "")
	m.set("dnswire.interned_names", float64(o.internNames), "count", n, "distinct names interned, counting table resets")
	m.set("dnswire.malformed_ratio", ratio(o.dnsBad, o.dnsMsgs), "ratio", int(o.dnsMsgs), "guard")
	m.set("resolver.insert_ns_per_op", med(func(o *ledgerOut) float64 { return per(o.self[spanInsert], o.inserts) }), "ns", int(o.inserts), "")
	m.set("resolver.lookup_ns_per_op", med(func(o *ledgerOut) float64 { return per(o.self[spanLookup], o.lookups) }), "ns", int(o.lookups), "")
	m.set("resolver.hit_ratio", ratio(o.hits, o.lookups), "ratio", int(o.lookups), "useful lookups over attempts")
	m.set("resolver.evictions", float64(o.evictions), "count", n, "")
	m.set("resolver.useless_dns_ratio", 1-ratio(o.used, o.responses), "ratio", int(o.responses), "guard (Table 9)")
	m.set("resolver.checkpoint_load_ms", med(func(o *ledgerOut) float64 { return float64(o.ckptLoadNs) / 1e6 }), "ms", o.restored, "ReadSnapshot + Restore")
	m.set("resolver.checkpoint_write_ms", med(func(o *ledgerOut) float64 { return float64(o.ckptWriteNs) / 1e6 }), "ms", n, "Snapshot + WriteSnapshot + fsync")
	m.set("flowdb.add_ns_per_flow", med(func(o *ledgerOut) float64 { return per(o.self[spanFlowDB], o.flowsOut) }), "ns", int(o.flowsOut), "self time, window analytics excluded")
	var flushes []float64
	for _, o := range outs {
		flushes = append(flushes, o.windowFlushMs...)
	}
	m.set("flowdb.window_flush_ms_p99", pct(flushes, 99), "ms", len(flushes), "Windowed.Add calls that rotated a window, all replays")
	m.set("analytics.observe_ms_per_window", med(func(o *ledgerOut) float64 { return per(o.self[spanAnalytics], o.windows) / 1e6 }), "ms", int(o.windows), "")

	// The ledger: each stage's self time per end-to-end packet, in
	// pipeline order, against the untraced end-to-end figure.
	stages := []struct {
		name  string
		kinds []spanKind
	}{
		{"netio", []spanKind{spanNetio}},
		{"layers", []spanKind{spanLayers}},
		{"flows", []spanKind{spanFlows, spanSweep}},
		{"dnswire", []spanKind{spanDNS}},
		{"resolver", []spanKind{spanInsert, spanLookup}},
		{"flowdb", []spanKind{spanFlowDB}},
		{"analytics", []spanKind{spanAnalytics}},
	}
	sum := 0.0
	for _, st := range stages {
		v := med(func(o *ledgerOut) float64 {
			var ns int64
			for _, k := range st.kinds {
				ns += o.self[k]
			}
			return per(ns, o.pkts)
		})
		sum += v
		m.set("ledger."+st.name+"_ns_per_pkt", v, "ns", n, "stage self time over all packets")
	}
	m.set("ledger.stage_sum_ns_per_pkt", sum, "ns", n, "")
	m.set("ledger.e2e_ns_per_pkt", e2eNsPerPkt, "ns", n, "untraced repetitions, median")
	m.set("core.residual_ns_per_pkt", e2eNsPerPkt-sum, "ns", n, "end-to-end minus the stage sum: dispatch, rings, sink, scheduling")
	return first, nil
}
