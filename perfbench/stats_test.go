package main

import (
	"math"
	"testing"
	"time"

	dnhunter "repro"
	"repro/internal/netio"
)

// fakeClock advances only when told to; Sleep moves it forward.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) {
	c.t = c.t.Add(d)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestPercentileSampleCount(t *testing.T) {
	var l latencies
	base := time.Unix(0, 0)
	for i := 1; i <= 100; i++ {
		l.add(base, base.Add(time.Duration(i)*time.Millisecond))
	}
	if ms, ok := l.percentile(50); ms != 50 || !ok {
		t.Errorf("p50 of 1..100 ms = %v (supported %v), want 50 supported", ms, ok)
	}
	// A p99 needs ten samples beyond it: 100 samples leave one.
	if ms, ok := l.percentile(99); ms != 99 || ok {
		t.Errorf("p99 of 100 samples = %v (supported %v), want 99 unsupported", ms, ok)
	}
	l.reset()
	for i := 1; i <= 1000; i++ {
		l.add(base, base.Add(time.Duration(i)*time.Microsecond))
	}
	if ms, ok := l.percentile(99); ms != 0.99 || !ok {
		t.Errorf("p99 of 1000 samples = %v (supported %v), want 0.99 supported", ms, ok)
	}
	l.reset()
	if _, ok := l.percentile(50); ok || l.count() != 0 {
		t.Error("an empty sample supports a percentile")
	}
}

// TestHistPercentile checks the run-wide histogram reads percentiles back
// within its 0.1% bucket width, with the same ten-samples-beyond rule.
func TestHistPercentile(t *testing.T) {
	for _, v := range []int64{0, 1, 1023, 1024, 1025, 2047, 2048, 123456789, 1 << 40} {
		low, width := histBucket(histIndex(v))
		if v < low || v >= low+width || (v >= histSub && width*histSub > low) {
			t.Errorf("%d falls in bucket [%d, %d)", v, low, low+width)
		}
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= want/histSub }
	var h hist
	ms := make([]int64, 100)
	for i := range ms {
		ms[i] = int64(i+1) * int64(time.Millisecond)
	}
	h.addAll(ms)
	if p, ok := h.percentile(50); !near(p, 50) || !ok {
		t.Errorf("p50 of 1..100 ms = %v (supported %v), want 50 supported", p, ok)
	}
	if p, ok := h.percentile(99); !near(p, 99) || ok {
		t.Errorf("p99 of 100 samples = %v (supported %v), want 99 unsupported", p, ok)
	}
	us := make([]int64, 1000)
	for i := range us {
		us[i] = int64(i+1) * int64(time.Microsecond)
	}
	h.addAll(us) // pooled: 1100 samples
	if p, ok := h.percentile(90); !near(p, 0.99) || !ok || h.n != 1100 {
		t.Errorf("p90 of the pooled sample = %v (supported %v, n %d), want 0.99 ms", p, ok, h.n)
	}
	var empty hist
	if _, ok := empty.percentile(50); ok {
		t.Error("an empty histogram supports a percentile")
	}
}

func pkts(ts ...time.Duration) []netio.Packet {
	out := make([]netio.Packet, len(ts))
	for i, t := range ts {
		out[i] = netio.Packet{Timestamp: t, Data: []byte{byte(i)}}
	}
	return out
}

// TestOpenLoopLatencyFromDueTime drives the pacer and the tag callback
// with a fake clock: a tag is timed from when its packet was due, so a
// stall before the read counts against every packet that came due during
// it.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	// Trace seconds 10, 11 and 12 at speedup 1000: due at +0, +1 ms, +2 ms.
	p := newProbe(clk)
	p.pace = newPacer(clk, pkts(10*time.Second, 11*time.Second, 12*time.Second), 1000)
	src := &source{p: p}
	p.begin()
	start := clk.t
	buf := make([]netio.Packet, 8)
	if n, err := src.ReadBlock(buf); n != 1 || err != nil {
		t.Fatalf("first read = %d, %v; want only the packet due now", n, err)
	}
	p.OnTag(dnhunter.TagEvent{At: 10 * time.Second})
	clk.advance(5 * time.Millisecond) // the engine stalls
	if n, _ := src.ReadBlock(buf); n != 2 {
		t.Fatalf("read after the stall = %d packets, want both overdue ones", n)
	}
	p.OnTag(dnhunter.TagEvent{At: 11 * time.Second})
	p.OnTag(dnhunter.TagEvent{At: 12 * time.Second})
	if n, err := src.ReadBlock(buf); n != 0 || err == nil {
		t.Fatalf("read past the end = %d, %v; want EOF", n, err)
	}
	want := []int64{0, int64(4 * time.Millisecond), int64(3 * time.Millisecond)}
	for i, w := range want {
		if p.lat.ns[i] != w {
			t.Errorf("tag %d latency %v, want %v", i, time.Duration(p.lat.ns[i]), time.Duration(w))
		}
	}
	// The generator was 4 ms late handing over the second block.
	if lag := p.pace.lag.ns; len(lag) != 2 || lag[0] != 0 || lag[1] != int64(4*time.Millisecond) {
		t.Errorf("generator lag %v, want [0 4ms]", lag)
	}
	if !p.first.Equal(start) || p.pkts != 3 || p.last.IsZero() {
		t.Errorf("first read %v (want %v), %d packets, last %v", p.first, start, p.pkts, p.last)
	}
}

// TestOpenLoopSleepsUntilDue checks the pacer waits for the next packet
// rather than handing it over early.
func TestOpenLoopSleepsUntilDue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	pc := newPacer(clk, pkts(0, 3*time.Second), 1000)
	pc.start(clk.t)
	buf := make([]netio.Packet, 8)
	pc.read(buf)
	before := clk.t
	if n, _ := pc.read(buf); n != 1 || clk.t.Sub(before) != 3*time.Millisecond {
		t.Errorf("second read returned %d after sleeping %v, want 1 after 3ms", n, clk.t.Sub(before))
	}
}

// TestClosedLoopLatencyFromHandOff checks a closed-loop tag is timed from
// the moment its block was handed to the engine.
func TestClosedLoopLatencyFromHandOff(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	p := newProbe(clk)
	src := &source{p: p, inner: &sliceBlocks{pkts: pkts(0, time.Second)}}
	p.begin()
	clk.advance(7 * time.Millisecond) // set-up
	buf := make([]netio.Packet, 8)
	src.ReadBlock(buf)
	clk.advance(2 * time.Millisecond)
	p.OnTag(dnhunter.TagEvent{At: time.Second})
	if p.lat.ns[0] != int64(2*time.Millisecond) {
		t.Errorf("latency %v, want 2ms", time.Duration(p.lat.ns[0]))
	}
	if p.first.Sub(p.start) != 7*time.Millisecond {
		t.Errorf("set-up %v, want 7ms", p.first.Sub(p.start))
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	parent := tr.open(spanFlowDB, at(0), 0)
	tr.add(spanAnalytics, at(2), at(5), parent, 0)
	tr.close(parent, at(10))
	tr.add(spanFlowDB, at(20), at(24), -1, 1)
	self := tr.selfNs(0)
	if self[spanFlowDB] != 11 || self[spanAnalytics] != 3 {
		t.Errorf("self times flowdb %d analytics %d, want 11 and 3", self[spanFlowDB], self[spanAnalytics])
	}
	if got := tr.selfNs(1); got[spanFlowDB] != 9 || got[spanAnalytics] != 2 {
		t.Errorf("with 1 ns clock overhead: flowdb %d analytics %d, want 9 and 2", got[spanFlowDB], got[spanAnalytics])
	}
}

// TestSinkSpansPerBlock checks callbacks are folded into one span per
// source block, lasting their summed time.
func TestSinkSpansPerBlock(t *testing.T) {
	tr := newTracer()
	at := func(ns int) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	var s sinkSpans
	s.add(tr, 1, at(0), at(2))
	s.add(tr, 1, at(10), at(13))
	s.add(tr, 2, at(20), at(21))
	s.flush(tr)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	if a, b := tr.spans[0], tr.spans[1]; a.block != 1 || a.end-a.start != 5 || b.block != 2 || b.end-b.start != 1 {
		t.Errorf("spans %+v %+v", a, b)
	}
}
