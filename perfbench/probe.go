package main

import (
	"io"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	dnhunter "repro"
	"repro/internal/netio"
)

// repResult is what one repetition measured. Times are nanoseconds.
type repResult struct {
	setupNs int64 // construction (incl. pcap open / checkpoint load) → first packet asked for
	wallNs  int64 // first packet asked for → run returned (paced: → last packet handed)
	cpuNs   int64 // process CPU over the same interval as wallNs, plus drain
	drainNs int64 // last packet handed → run returned

	pkts    uint64 // packets the engine read
	offered uint64 // packets the workload offered
	lost    uint64 // shed entries plus ingress-shed frames

	allocBytes, allocs uint64
	peakHeap           uint64 // bytes above the pre-repetition heap

	// lat is the repetition's tag latencies in ns. It aliases the probe's
	// buffer, which the next repetition reuses: the run pools it first.
	lat []int64

	lookups, hits    uint64 // resolver lookups and hits (background flows)
	labeled, correct uint64 // labeled flows and those matching the truth sidecar
	ringDepthMax     int
	ringFullParks    uint64
	scrapeMs         []float64
	lagP99           float64 // ms
}

// probe is the benchmark's seam around one engine run: the packet source
// wrapper and the sink. It records when the engine first asked for a
// packet (the end of set-up), when each block was handed over, and every
// tag's latency.
type probe struct {
	clk   clock
	start time.Time // set-up began
	first time.Time // first read call
	last  time.Time // source returned io.EOF
	pkts  uint64
	u0    usage // process counters at the first read

	// handed is the hand-off time of the block being processed: the due
	// time of closed-loop packets, whose engine reads its own input.
	handed time.Time
	// pace, when set, gives open-loop packets their due time instead.
	pace *pacer
	lat  latencies

	// flows accumulates finished flows in serve mode, where no Result.DB
	// exists; nil in batch mode.
	flows *[]flowOut

	tr *tracer
	// block numbers the source reads; spans of one block share it. Sink
	// callbacks may run on shard goroutines, hence the atomic.
	block atomic.Int32
	sink  sinkSpans
}

// flowOut is the part of a finished flow the quality metrics need.
type flowOut struct {
	key     dnhunter.FlowKey
	label   string
	labeled bool
}

func newProbe(clk clock) *probe {
	return &probe{clk: clk}
}

// begin marks the start of set-up.
func (p *probe) begin() {
	p.start = p.clk.Now()
	p.first, p.last = time.Time{}, time.Time{}
	p.pkts = 0
	p.block.Store(0)
	p.sink = sinkSpans{}
	p.lat.reset()
	if p.flows != nil {
		*p.flows = (*p.flows)[:0]
	}
}

// source wraps the workload's packets. It implements netio.PacketSource
// and netio.BlockSource but not StableSource, so serve mode copies every
// frame into the block arena exactly as it would from a live capture.
type source struct {
	p     *probe
	inner netio.BlockSource
}

func (s *source) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	n, err := s.ReadBlock(one[:])
	if n == 1 {
		return one[0], nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return netio.Packet{}, err
}

func (s *source) ReadBlock(dst []netio.Packet) (int, error) {
	p := s.p
	if p.first.IsZero() {
		// Set-up ends here: CPU and allocation figures start now.
		p.u0 = readUsage()
		p.first = p.clk.Now()
		if p.pace != nil {
			p.pace.start(p.first)
		}
	}
	now := p.clk.Now()
	var n int
	var err error
	if p.pace != nil {
		n, err = p.pace.read(dst)
	} else {
		n, err = s.inner.ReadBlock(dst)
	}
	end := p.clk.Now()
	p.handed = end
	p.pkts += uint64(n)
	if p.tr != nil {
		p.tr.add(spanRead, now, end, -1, p.block.Add(1))
	}
	if err == io.EOF && p.last.IsZero() {
		p.last = end
	}
	return n, err
}

// OnTag records the tag's latency from its packet's due time.
func (p *probe) OnTag(e dnhunter.TagEvent) {
	var t0 time.Time
	if p.tr != nil {
		t0 = p.clk.Now()
	}
	var due time.Time
	if p.pace != nil {
		due = p.pace.due(e.At)
	} else {
		due = p.handed
	}
	now := p.clk.Now()
	p.lat.add(due, now)
	if p.tr != nil {
		p.sink.add(p.tr, p.block.Load(), t0, p.clk.Now())
	}
}

func (p *probe) OnDNSResponse(dnhunter.DNSEvent) {}

func (p *probe) OnFlow(f dnhunter.LabeledFlow) {
	if p.flows == nil {
		return
	}
	var t0 time.Time
	if p.tr != nil {
		t0 = p.clk.Now()
	}
	*p.flows = append(*p.flows, flowOut{key: f.Key, label: f.Label, labeled: f.Labeled})
	if p.tr != nil {
		p.sink.add(p.tr, p.block.Load(), t0, p.clk.Now())
	}
}

func (p *probe) Close() error { return nil }

// end finishes a traced run: the last block's sink span is recorded.
func (p *probe) end() {
	if p.tr != nil {
		p.sink.flush(p.tr)
	}
}

// sinkSpans aggregates the sink callbacks made while one source block was
// current into one span, so tracing costs one record per block rather
// than per event. The span starts at the first callback and lasts the
// callbacks' summed time. The engine serializes sink calls, so no lock is
// needed.
type sinkSpans struct {
	block int32
	first time.Time
	busy  time.Duration
	n     int
}

func (s *sinkSpans) add(tr *tracer, block int32, t0, t1 time.Time) {
	if s.n > 0 && block != s.block {
		s.flush(tr)
	}
	if s.n == 0 {
		s.block, s.first = block, t0
	}
	s.busy += t1.Sub(t0)
	s.n++
}

func (s *sinkSpans) flush(tr *tracer) {
	if s.n == 0 {
		return
	}
	tr.add(spanSink, s.first, s.first.Add(s.busy), -1, s.block)
	*s = sinkSpans{}
}

// pacer releases packets on an open-loop schedule: packet i is due at
// start + (ts_i - ts_0)/speedup whatever the engine does, so trace
// burstiness is kept and a stalled engine builds a backlog.
type pacer struct {
	clk      clock
	pkts     []netio.Packet
	next     int
	t0       time.Time
	base     time.Duration
	slowdown float64 // wall ns per trace ns (1/speedup)
	lag      latencies
}

func newPacer(clk clock, pkts []netio.Packet, speedup float64) *pacer {
	return &pacer{clk: clk, pkts: pkts, base: pkts[0].Timestamp, slowdown: 1 / speedup}
}

func (p *pacer) start(now time.Time) {
	p.t0 = now
	p.next = 0
	p.lag.reset()
}

func (p *pacer) due(ts time.Duration) time.Time {
	return p.t0.Add(time.Duration(float64(ts-p.base) * p.slowdown))
}

// read sleeps until the next packet is due, then hands over every packet
// that is due by then. The lateness of each block's first packet is the
// generator's lag.
func (p *pacer) read(dst []netio.Packet) (int, error) {
	if p.next >= len(p.pkts) {
		return 0, io.EOF
	}
	due := p.due(p.pkts[p.next].Timestamp)
	now := p.clk.Now()
	if wait := due.Sub(now); wait > 0 {
		p.clk.Sleep(wait)
		now = p.clk.Now()
	}
	p.lag.add(due, now)
	n := 0
	for n < len(dst) && p.next < len(p.pkts) && !p.due(p.pkts[p.next].Timestamp).After(now) {
		dst[n] = p.pkts[p.next]
		n++
		p.next++
	}
	return n, nil
}

// sliceBlocks reads an in-memory packet slice in blocks.
type sliceBlocks struct {
	pkts []netio.Packet
	next int
}

func (s *sliceBlocks) ReadBlock(dst []netio.Packet) (int, error) {
	if s.next >= len(s.pkts) {
		return 0, io.EOF
	}
	n := copy(dst, s.pkts[s.next:])
	s.next += n
	return n, nil
}

// usage is a process-wide counter snapshot: CPU time from getrusage and
// allocation totals from runtime/metrics (neither stops the world).
type usage struct {
	cpuNs              int64
	allocBytes, allocs uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(usageSamples)
	return usage{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: usageSamples[0].Value.Uint64(),
		allocs:     usageSamples[1].Value.Uint64(),
	}
}

// heapSampler polls the heap size every millisecond from its own
// goroutine, through runtime/metrics, which does not stop the world. An
// optional poll function runs at the same cadence (ring-depth gauges).
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	base uint64
	peak uint64
	poll func()
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func heapNow() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

func startHeapSampler(poll func()) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), base: heapNow(), poll: poll}
	h.peak = h.base
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapNow(); v > h.peak {
					h.peak = v
				}
				if h.poll != nil {
					h.poll()
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap above the baseline.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	if v := heapNow(); v > h.peak {
		h.peak = v
	}
	return h.peak - h.base
}
