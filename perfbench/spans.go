package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanKind names a span: the layer whose public API (or benchmark seam)
// the span surrounds, and what it did there.
type spanKind uint8

const (
	spanRead      spanKind = iota // source block read (benchmark seam)
	spanSink                      // sink callbacks of one block (benchmark seam)
	spanSetup                     // construction → first packet asked for
	spanDrain                     // last packet handed → run returned (incl. checkpoint write)
	spanScrape                    // one /metrics scrape through serve.Server.Handler
	spanObserve                   // ServeConfig.ObserveWindow → analytics.Pipeline.ObserveWindow
	spanFlush                     // ServeConfig.FlushWindow
	spanNetio                     // stage replay: netio ReadBlockRef
	spanLayers                    // stage replay: layers.Parser.Parse
	spanFlows                     // stage replay: flows.Table.Add
	spanSweep                     // stage replay: flows.Table.FlushIdle
	spanTLS                       // stage replay: tlswire.InspectStream
	spanDNS                       // stage replay: dnswire.Message.Unpack
	spanInsert                    // stage replay: resolver.Insert
	spanLookup                    // stage replay: resolver.LookupEntry
	spanCkptLoad                  // stage replay: resolver.ReadSnapshot + Restore
	spanCkptWrite                 // stage replay: resolver.Snapshot + WriteSnapshot + fsync
	spanFlowDB                    // stage replay: flowdb.DB.Add / Windowed.Add
	spanAnalytics                 // stage replay: analytics.Pipeline.ObserveWindow
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"source.read", "sink.callbacks", "core.setup", "core.drain", "serve.scrape",
	"analytics.observe_window", "flowdb.flush_window",
	"netio.read_block_ref", "layers.parse", "flows.add", "flows.sweep",
	"tlswire.inspect_stream", "dnswire.unpack", "resolver.insert", "resolver.lookup",
	"resolver.checkpoint_load", "resolver.checkpoint_write", "flowdb.add",
	"analytics.observe_window",
}

// span is one recorded interval. Times are nanoseconds since the tracer
// was created; parent indexes the enclosing span (-1 for none); spans of
// one packet block share block.
type span struct {
	kind       spanKind
	start, end int64
	parent     int32
	block      int32
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the source, the sink, the scraper and the stage replay
// record from different goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a span and returns its index, for use as a parent.
func (t *tracer) add(k spanKind, start, end time.Time, parent, block int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{kind: k, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), parent: parent, block: block})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not known yet, so that spans it
// causes can name it as their parent; close sets the end.
func (t *tracer) open(k spanKind, start time.Time, block int32) int32 {
	return t.add(k, start, start, -1, block)
}

func (t *tracer) close(i int32, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = int64(end.Sub(t.epoch))
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfNs returns the self time of every span kind: each span's duration
// minus the time its children cover, less the clock's own cost per span
// (overheadNs, measured by calibrateClock).
func (t *tracer) selfNs(overheadNs int64) [numSpanKinds]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpanKinds]int64
	for i, s := range t.spans {
		d := s.end - s.start - child[i] - overheadNs
		if d > 0 {
			out[s.kind] += d
		}
	}
	return out
}

// calibrateClock returns the median time between two consecutive clock
// reads: what a span's measured duration adds to the work it surrounds.
func calibrateClock() int64 {
	d := make([]float64, 4096)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return int64(median(d))
}

// writeSpans writes the tracers' spans as JSON lines; run names the
// tracer each span came from.
func writeSpans(path string, runs map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for run, t := range runs {
		t.mu.Lock()
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"run":%q,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"block":%d}`+"\n",
				run, i, spanNames[s.kind], s.start, s.end, s.parent, s.block)
		}
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// seamMetrics reports the traced repetitions' self time at the
// benchmark's own seams, per packet the engine read.
func seamMetrics(tr *tracer, reps []*repResult, m metricSet) {
	var pkts uint64
	for _, r := range reps {
		pkts += r.pkts
	}
	if pkts == 0 {
		return
	}
	self := tr.selfNs(calibrateClock())
	m.set("source.read_ns_per_pkt", float64(self[spanRead])/float64(pkts), "ns", int(pkts), "source block reads in traced repetitions, pacing sleeps included")
	m.set("sink.ns_per_pkt", float64(self[spanSink])/float64(pkts), "ns", int(pkts), "sink callbacks in traced repetitions")
}
