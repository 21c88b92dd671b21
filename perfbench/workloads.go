package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	dnhunter "repro"
	"repro/internal/dnswire"
	"repro/internal/flows"
	"repro/internal/layers"
	"repro/internal/netio"
	"repro/internal/orgdb"
	"repro/internal/resolver"
	"repro/internal/serve"
	"repro/internal/synth"
)

// Workload sizes. Each is chosen so one repetition lasts a few hundred
// milliseconds on a 2-vCPU host, giving tens of repetitions per run.
const (
	ftthScale   = 6   // batch-ftth: EU1-FTTH clients ×6, ~165k packets
	churnScale  = 6   // serve-churn: DNS-CHURN clients ×6; the second half, ~115k packets, is served
	churnRate   = 2e5 // serve-churn offered rate, packets per wall second
	floodScale  = 2   // flood: EU1-FTTH background, ~55k packets
	floodSYNs   = 1e5 // flood: spoofed SYNs
	floodNames  = 4e4 // flood: random-subdomain DNS responses
	floodClistL = 1 << 15
	scrapeEvery = 50 * time.Millisecond
)

// ref is a one-time shards=1 batch run on a workload's input: every
// repetition must reproduce its counts.
type ref struct {
	frames, flows, dns uint64
	windows            uint64
}

func (r ref) check(frames, flows, dns uint64) error {
	if frames != r.frames {
		return fmt.Errorf("engine read %d packets, %d were generated", frames, r.frames)
	}
	if flows != r.flows || dns != r.dns {
		return fmt.Errorf("%d flows and %d DNS responses, the shards=1 reference has %d and %d", flows, dns, r.flows, r.dns)
	}
	return nil
}

// checkArena fails when a pooled payload block was never released.
func checkArena() error {
	if st := netio.DefaultBlockPool().Stats(); st.Gets != st.Retired {
		return fmt.Errorf("block arena unbalanced: %d gets, %d retired", st.Gets, st.Retired)
	}
	return nil
}

// quality scores finished flows against the truth sidecar: hits and
// lookups count every flow the filter admits (one resolver lookup each),
// labeled and correct count the labeled ones and those whose label is the
// truth FQDN.
func quality(r *repResult, out []flowOut, truth map[flows.Key]string, admit func(flows.Key) bool) {
	for _, f := range out {
		if !admit(f.key) {
			continue
		}
		r.lookups++
		if f.labeled {
			r.hits++
			r.labeled++
			if truth[f.key] == f.label {
				r.correct++
			}
		}
	}
}

// measure wraps one engine run with the process counters: CPU and
// allocations from the first packet to the end, and the heap peak over
// the whole repetition.
func measure(p *probe, r *repResult, heap *heapSampler, run func() error) error {
	err := run()
	end := p.clk.Now()
	u1 := readUsage()
	r.peakHeap = heap.finish()
	p.end()
	if err != nil {
		return err
	}
	if p.first.IsZero() {
		return fmt.Errorf("engine never read its source")
	}
	r.setupNs = int64(p.first.Sub(p.start))
	r.cpuNs = u1.cpuNs - p.u0.cpuNs
	r.allocBytes = u1.allocBytes - p.u0.allocBytes
	r.allocs = u1.allocs - p.u0.allocs
	r.pkts = p.pkts
	r.lat = p.lat.ns
	if p.last.IsZero() {
		p.last = end
	}
	r.wallNs = int64(end.Sub(p.first))
	r.drainNs = int64(end.Sub(p.last))
	if p.tr != nil {
		// Checkpoint load is inside set-up, checkpoint write inside drain.
		p.tr.add(spanSetup, p.start, p.first, -1, 0)
		p.tr.add(spanDrain, p.last, end, -1, p.block.Load())
	}
	return nil
}

// ---- batch-ftth --------------------------------------------------------

// batchFTTH runs Engine.Run at shards=1 over an EU1-FTTH capture read back
// from a pcap file: the dnhunter -pcap path.
type batchFTTH struct {
	pcap  string
	dir   string
	n     uint64
	truth map[flows.Key]string
	ref   ref
	p     *probe
}

func (b *batchFTTH) prepare(seed uint64, dir string) error {
	tr := synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, ftthScale, seed))
	b.dir, b.pcap, b.truth, b.n = dir, filepath.Join(dir, "ftth.pcap"), tr.Truth, uint64(len(tr.Packets))
	if err := writePcap(b.pcap, tr.Packets); err != nil {
		return err
	}
	res, err := b.run(dnhunter.NewEngine(dnhunter.WithShards(1)), nil)
	if err != nil {
		return err
	}
	b.ref = ref{frames: b.n, flows: res.Stats.Flows, dns: res.Stats.DNSResponses}
	b.p = newProbe(wallClock{})
	return nil
}

func writePcap(path string, pkts []netio.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	w := netio.NewWriter(bw)
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run opens the pcap and drains it through eng; wrap, when set, wraps the
// reader.
func (b *batchFTTH) run(eng *dnhunter.Engine, wrap func(netio.BlockSource) netio.PacketSource) (*dnhunter.Result, error) {
	f, err := os.Open(b.pcap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := netio.NewReader(f)
	if err != nil {
		return nil, err
	}
	var src netio.PacketSource = r
	if wrap != nil {
		src = wrap(r)
	}
	return eng.Run(context.Background(), src)
}

func (b *batchFTTH) rep(tr *tracer) (*repResult, error) {
	p := b.p
	p.tr = tr
	r := &repResult{offered: b.n}
	heap := startHeapSampler(nil)
	var res *dnhunter.Result
	p.begin()
	err := measure(p, r, heap, func() error {
		eng := dnhunter.NewEngine(dnhunter.WithShards(1), dnhunter.WithSink(p))
		var err error
		res, err = b.run(eng, func(bs netio.BlockSource) netio.PacketSource {
			return &source{p: p, inner: bs}
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := b.ref.check(r.pkts, res.Stats.Flows, res.Stats.DNSResponses); err != nil {
		return nil, err
	}
	if err := checkArena(); err != nil {
		return nil, err
	}
	st := res.Stats.Resolver
	r.lookups, r.hits = st.Lookups, st.Hits
	for _, f := range res.DB.All() {
		if f.Labeled {
			r.labeled++
			if b.truth[f.Key] == f.Label {
				r.correct++
			}
		}
	}
	return r, nil
}

func (b *batchFTTH) e2eNsPerPkt(r *repResult) float64 { return float64(r.wallNs) / float64(r.pkts) }

func (b *batchFTTH) ledgerInput() *ledgerInput {
	return &ledgerInput{pcap: b.pcap, dir: b.dir}
}

// ---- serve-churn -------------------------------------------------------

// serveChurn serves DNS-CHURN at shards=2 with shedding, 5-minute windows
// and the streaming analytics, paced open loop at churnRate, restoring a
// checkpoint prepared from the first half of the trace.
type serveChurn struct {
	dir      string
	pkts     []netio.Packet
	speedup  float64
	orgs     *orgdb.DB
	truth    map[flows.Key]string
	ckpt     []byte // prepared checkpoint file
	ckptPath string
	restored int
	ref      ref
	p        *probe
	out      []flowOut
}

const churnWindow = 5 * time.Minute

func (s *serveChurn) prepare(seed uint64, dir string) error {
	tr := synth.Generate(synth.NamedScenario(synth.NameDNSChurn, churnScale, seed))
	half := len(tr.Packets) / 2
	warm, served := tr.Packets[:half], tr.Packets[half:]
	s.dir, s.pkts, s.orgs, s.truth = dir, contiguous(served), tr.OrgDB, tr.Truth
	span := served[len(served)-1].Timestamp - served[0].Timestamp
	s.speedup = span.Seconds() * churnRate / float64(len(served))

	// The checkpoint a previous process would have left: serve the first
	// half and drain.
	s.ckptPath = filepath.Join(dir, "clist.ckpt")
	if _, err := dnhunter.NewEngine(dnhunter.WithShards(1)).Serve(context.Background(),
		netio.NewSlicePacketSource(warm), dnhunter.ServeConfig{CheckpointPath: s.ckptPath}); err != nil {
		return fmt.Errorf("preparing checkpoint: %w", err)
	}
	var err error
	if s.ckpt, err = os.ReadFile(s.ckptPath); err != nil {
		return err
	}
	entries, err := resolver.ReadSnapshot(bytes.NewReader(s.ckpt))
	if err != nil {
		return fmt.Errorf("prepared checkpoint: %w", err)
	}
	s.restored = len(entries)

	// The reference: the served half at shards=1, unpaced, from the same
	// checkpoint.
	if err := os.WriteFile(s.ckptPath, s.ckpt, 0o644); err != nil {
		return err
	}
	rep, err := dnhunter.NewEngine(dnhunter.WithShards(1)).Serve(context.Background(),
		netio.NewSlicePacketSource(served), dnhunter.ServeConfig{Window: churnWindow, CheckpointPath: s.ckptPath})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	s.ref = ref{frames: uint64(len(served)), flows: rep.Stats.Flows, dns: rep.Stats.DNSResponses, windows: rep.Windows}
	s.out = make([]flowOut, 0, rep.Stats.Flows)
	s.p = newProbe(wallClock{})
	s.p.flows = &s.out
	s.p.pace = newPacer(wallClock{}, s.pkts, s.speedup)
	return nil
}

func (s *serveChurn) rep(tr *tracer) (*repResult, error) {
	if err := os.WriteFile(s.ckptPath, s.ckpt, 0o644); err != nil {
		return nil, err
	}
	p := s.p
	p.tr = tr
	r := &repResult{offered: uint64(len(s.pkts))}
	var cur atomic.Pointer[dnhunter.Server]
	var depthMax atomic.Int64
	heap := startHeapSampler(func() {
		if srv := cur.Load(); srv != nil {
			for _, d := range srv.Metrics().RingDepths() {
				if int64(d) > depthMax.Load() {
					depthMax.Store(int64(d))
				}
			}
		}
	})
	var rep *dnhunter.ServeReport
	var observed atomic.Uint64
	p.begin()
	err := measure(p, r, heap, func() error {
		pipe := dnhunter.NewAnalyticsPipeline(dnhunter.StreamingQueries(s.orgs)...)
		scfg := dnhunter.ServeConfig{
			Window: churnWindow,
			ObserveWindow: func(w dnhunter.Window) {
				t0 := time.Now()
				pipe.ObserveWindow(w)
				observed.Add(1)
				if tr != nil {
					tr.add(spanObserve, t0, time.Now(), -1, p.block.Load())
				}
			},
			FlushWindow: func(w dnhunter.Window) error {
				if tr != nil {
					t0 := time.Now()
					_ = w.DB.Len()
					tr.add(spanFlush, t0, time.Now(), -1, p.block.Load())
				}
				return nil
			},
			Shed:           true,
			CheckpointPath: s.ckptPath,
		}
		srv := dnhunter.NewEngine(dnhunter.WithShards(2), dnhunter.WithReaders(1), dnhunter.WithSink(p)).Server(scfg)
		cur.Store(srv)
		scr := startScraper(serve.New(serve.Config{Metrics: srv.Metrics(), Analytics: pipe}).Handler(), tr)
		var err error
		rep, err = srv.Serve(context.Background(), &source{p: p})
		r.scrapeMs = scr.stop()
		return err
	})
	if err != nil {
		return nil, err
	}
	// The offered rate is fixed: throughput is measured over the pacing
	// window, and the drain is reported on its own.
	r.wallNs = int64(p.last.Sub(p.first))
	srv := cur.Load()
	r.ringDepthMax = int(depthMax.Load())
	for _, rs := range srv.Metrics().ReaderStats() {
		r.ringFullParks += rs.RingFullParks + rs.MeshFullParks
		r.lost += rs.ShedFrames
	}
	r.lost += rep.Dropped.Flows + rep.Dropped.DNS
	r.lagP99, _ = p.pace.lag.percentile(99)
	if rep.Packets != r.offered {
		return nil, fmt.Errorf("server read %d packets, %d were offered", rep.Packets, r.offered)
	}
	if r.lost == 0 {
		if err := s.ref.check(r.pkts, rep.Stats.Flows, rep.Stats.DNSResponses); err != nil {
			return nil, err
		}
		if rep.Windows != s.ref.windows {
			return nil, fmt.Errorf("%d windows flushed, the reference flushed %d", rep.Windows, s.ref.windows)
		}
	}
	if n := observed.Load(); n != rep.Windows {
		return nil, fmt.Errorf("analytics observed %d windows, %d were flushed", n, rep.Windows)
	}
	if rep.FreshStart != "" || rep.RestoredEntries != s.restored {
		return nil, fmt.Errorf("restored %d checkpoint entries (fresh start %q), the prepared checkpoint has %d", rep.RestoredEntries, rep.FreshStart, s.restored)
	}
	if err := checkArena(); err != nil {
		return nil, err
	}
	quality(r, s.out, s.truth, func(flows.Key) bool { return true })
	return r, nil
}

// e2eNsPerPkt is CPU per packet: the offered rate is fixed, so wall time
// per packet says nothing about cost here.
func (s *serveChurn) e2eNsPerPkt(r *repResult) float64 { return float64(r.cpuNs) / float64(r.pkts) }

func (s *serveChurn) ledgerInput() *ledgerInput {
	return &ledgerInput{pkts: s.pkts, arenaCopy: true, checkpoint: s.ledgerCheckpoint(), window: churnWindow, analytics: true, orgs: s.orgs, dir: s.dir}
}

// ledgerCheckpoint writes the prepared checkpoint where the ledger's
// replay reads it.
func (s *serveChurn) ledgerCheckpoint() string {
	path := filepath.Join(s.dir, "prepared.ckpt")
	if err := os.WriteFile(path, s.ckpt, 0o644); err != nil {
		return ""
	}
	return path
}

// scraper fetches /metrics through the ops handler at a fixed interval
// while a server runs, timing each scrape.
type scraper struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	ms    []float64
}

func startScraper(h http.Handler, tr *tracer) *scraper {
	s := &scraper{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				t0 := time.Now()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				t1 := time.Now()
				s.ms = append(s.ms, float64(t1.Sub(t0))/1e6)
				if tr != nil {
					tr.add(spanScrape, t0, t1, -1, -1)
				}
			}
		}
	}()
	return s
}

func (s *scraper) stop() []float64 {
	close(s.stopc)
	s.wg.Wait()
	return s.ms
}

// ---- flood -------------------------------------------------------------

// flood serves EU1-FTTH background traffic merged with a SYN flood and a
// random-subdomain DNS flood at shards=1, closed loop, with a Clist
// smaller than the flood's response count.
type flood struct {
	dir   string
	pkts  []netio.Packet
	truth map[flows.Key]string
	ref   ref
	p     *probe
	out   []flowOut
}

var (
	floodVictim = netip.MustParseAddr("198.51.100.10")
	floodLDNS   = netip.MustParseAddr("192.0.2.53")
)

func (f *flood) prepare(seed uint64, dir string) error {
	bg := synth.Generate(synth.NamedScenario(synth.NameEU1FTTH, floodScale, seed))
	fl, err := floodFrames(seed, 60*time.Minute, 2*time.Minute)
	if err != nil {
		return err
	}
	f.dir, f.truth = dir, bg.Truth
	f.pkts = contiguous(mergeByTime(bg.Packets, fl))
	res, err := dnhunter.NewEngine(dnhunter.WithShards(1), dnhunter.WithResolver(f.resolver())).
		Run(context.Background(), netio.NewSlicePacketSource(f.pkts))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	f.ref = ref{frames: uint64(len(f.pkts)), flows: res.Stats.Flows, dns: res.Stats.DNSResponses}
	if res.Stats.Resolver.Evictions == 0 {
		return fmt.Errorf("the flood evicted no Clist entry; L=%d is too large", floodClistL)
	}
	f.out = make([]flowOut, 0, res.Stats.Flows)
	f.p = newProbe(wallClock{})
	f.p.flows = &f.out
	return nil
}

func (f *flood) resolver() dnhunter.ResolverConfig { return resolver.Config{ClistSize: floodClistL} }

// floodFrames builds the two floods, spread uniformly over [at, at+d):
// SYNs from spoofed clients inside 10.0.0.0/16 with distinct ports to one
// victim, and DNS responses for random names under one victim domain.
func floodFrames(seed uint64, at, d time.Duration) ([]netio.Packet, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var b layers.Builder
	client := func() netip.Addr {
		v := rng.Uint32N(1<<16-2) + 1
		return netip.AddrFrom4([4]byte{10, 0, byte(v >> 8), byte(v)})
	}
	when := func() time.Duration { return at + time.Duration(rng.Int64N(int64(d))) }
	out := make([]netio.Packet, 0, floodSYNs+floodNames)
	for i := 0; i < floodSYNs; i++ {
		frame, err := b.TCPFrame(client(), floodVictim, uint16(1024+i%60000), 80, layers.TCPSyn, rng.Uint32(), 0, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, netio.Packet{Timestamp: when(), Data: append([]byte(nil), frame...)})
	}
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	name := make([]byte, 12)
	for i := 0; i < floodNames; i++ {
		for j := range name {
			name[j] = letters[rng.IntN(len(letters))]
		}
		fqdn := string(name) + ".flood-victim.example"
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(rng.IntN(256))})
		msg := dnswire.NewResponse(uint16(i), fqdn, dnswire.TypeA,
			[]dnswire.Record{{Name: fqdn, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: addr}})
		raw, err := msg.Pack(nil)
		if err != nil {
			return nil, err
		}
		frame, err := b.UDPFrame(floodLDNS, client(), 53, uint16(1024+i%60000), raw)
		if err != nil {
			return nil, err
		}
		out = append(out, netio.Packet{Timestamp: when(), Data: append([]byte(nil), frame...)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out, nil
}

// contiguous copies the packets' frames into one pointer-free buffer, as a
// capture ring holds them, so the collector does not trace one object per
// input frame while the engine runs.
func contiguous(pkts []netio.Packet) []netio.Packet {
	n := 0
	for _, p := range pkts {
		n += len(p.Data)
	}
	buf := make([]byte, 0, n)
	out := make([]netio.Packet, len(pkts))
	for i, p := range pkts {
		off := len(buf)
		buf = append(buf, p.Data...)
		out[i] = netio.Packet{Timestamp: p.Timestamp, Data: buf[off:len(buf):len(buf)]}
	}
	return out
}

// mergeByTime merges two timestamp-ordered packet lists, a's packets
// first on ties.
func mergeByTime(a, b []netio.Packet) []netio.Packet {
	out := make([]netio.Packet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Timestamp <= b[j].Timestamp) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

func (f *flood) rep(tr *tracer) (*repResult, error) {
	p := f.p
	p.tr = tr
	r := &repResult{offered: uint64(len(f.pkts))}
	heap := startHeapSampler(nil)
	var rep *dnhunter.ServeReport
	p.begin()
	err := measure(p, r, heap, func() error {
		srv := dnhunter.NewEngine(dnhunter.WithShards(1), dnhunter.WithResolver(f.resolver()), dnhunter.WithSink(p)).
			Server(dnhunter.ServeConfig{})
		var err error
		rep, err = srv.Serve(context.Background(), &source{p: p, inner: &sliceBlocks{pkts: f.pkts}})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := f.ref.check(r.pkts, rep.Stats.Flows, rep.Stats.DNSResponses); err != nil {
		return nil, err
	}
	if err := checkArena(); err != nil {
		return nil, err
	}
	quality(r, f.out, f.truth, func(k flows.Key) bool { return k.ServerIP != floodVictim })
	return r, nil
}

func (f *flood) e2eNsPerPkt(r *repResult) float64 { return float64(r.wallNs) / float64(r.pkts) }

func (f *flood) ledgerInput() *ledgerInput {
	// Serve's default window, without analytics, as the workload runs.
	return &ledgerInput{pkts: f.pkts, resolver: f.resolver(), window: 5 * time.Minute, dir: f.dir}
}

// ---- summaries ---------------------------------------------------------

// summarize turns repetitions into the end-to-end metrics. Rates are
// taken over the whole run (all packets over all measured time), tag
// latency over every tag of the run (lat pools them), and set-up time,
// counts and ratios as the median over repetitions.
func summarize(reps []*repResult, lat *hist, m metricSet) {
	n := len(reps)
	col := func(f func(*repResult) float64) []float64 {
		xs := make([]float64, n)
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	var offered, lost, pkts uint64
	var wallNs, cpuNs int64
	for _, r := range reps {
		offered += r.offered
		lost += r.lost
		pkts += r.pkts
		wallNs += r.wallNs
		cpuNs += r.cpuNs
	}
	p50, _ := lat.percentile(50)
	m.set("setup_s", median(col(func(r *repResult) float64 { return float64(r.setupNs) / 1e9 })), "s", n, "median over repetitions")
	m.set("pkts_per_s", float64(pkts)/(float64(wallNs)/1e9), "1/s", n, "all packets over all measured time")
	m.set("tag_latency_p50_ms", p50, "ms", lat.n, "tags over all repetitions")
	m.set("cpu_ns_per_pkt", float64(cpuNs)/float64(pkts), "ns", n, "all process CPU over all packets")
	m.set("delivered_ratio", 1-float64(lost)/float64(offered), "ratio", int(offered), "1 - loss: packets not shed over packets offered")
	m.set("peak_heap_mb", median(col(func(r *repResult) float64 { return float64(r.peakHeap) / (1 << 20) })), "MB", n, "above the pre-repetition heap")
	m.set("alloc_bytes_per_pkt", median(col(func(r *repResult) float64 { return float64(r.allocBytes) / float64(r.pkts) })), "B", n, "")
	m.set("allocs_per_pkt", median(col(func(r *repResult) float64 { return float64(r.allocs) / float64(r.pkts) })), "count", n, "")
	m.set("hit_ratio", median(col(func(r *repResult) float64 { return float64(r.hits) / float64(r.lookups) })), "ratio", int(reps[0].lookups), "resolver hits over lookups")
	m.set("label_accuracy", median(col(func(r *repResult) float64 { return float64(r.correct) / float64(r.labeled) })), "ratio", int(reps[0].labeled), "labeled flows matching the truth sidecar")
}

// servePerLayer reports what the traced repetitions saw at the serve
// seams.
func servePerLayer(reps []*repResult, m metricSet) {
	var scrapes, lags, drains []float64
	depth, parks := 0, []float64{}
	var lost uint64
	for _, r := range reps {
		scrapes = append(scrapes, r.scrapeMs...)
		lags = append(lags, r.lagP99)
		drains = append(drains, float64(r.drainNs)/1e6)
		depth = max(depth, r.ringDepthMax)
		parks = append(parks, float64(r.ringFullParks))
		lost += r.lost
	}
	m.set("serve.scrape_ms_p99", pct(scrapes, 99), "ms", len(scrapes), "scrapes of /metrics")
	m.set("loadgen.lag_p99_ms", median(lags), "ms", len(reps), "median over repetitions of the p99 hand-off lateness")
	m.set("core.drain_ms", median(drains), "ms", len(reps), "last packet handed to run returned")
	m.set("core.ring_depth_max", float64(depth), "count", len(reps), "dispatch ring depth, sampled every ms")
	m.set("core.ring_full_parks", median(parks), "count", len(reps), "per repetition")
	m.set("core.shed_drops", float64(lost), "count", len(reps), "shed entries and frames, all traced repetitions")
}

// tagLatencyP99 is the p99 over every tag of the untraced repetitions. It
// is a per-layer figure, not an end-to-end one: on the closed-loop
// workloads about one tag in a hundred waits behind a garbage collection
// or a host preemption, so the p99 sits on that knife edge and ten runs of
// batch-ftth spread about 0.26 of the median, past the 0.25 bound. On
// serve-churn it spreads about 0.09.
func tagLatencyP99(lat *hist, m metricSet) {
	p99, _ := lat.percentile(99)
	m.set("core.tag_latency_p99_ms", p99, "ms", lat.n, "tags over all untraced repetitions")
}

// pct is the nearest-rank percentile of xs, 0 when xs is empty.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(p/100*float64(len(s))))-1)]
}
