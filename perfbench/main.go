// Command perfbench is the repository benchmark: one process runs one
// named workload of the DN-Hunter engine for a fixed time, checks that the
// engine's outputs are correct, and prints every metric by name with its
// unit and sample count, ending with one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch-ftth --seed 1 --seconds 30 --trace 0
//
// --workload all runs the three workloads in turn in one process, printing
// each one's metrics and result line.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	batch-ftth   Engine.Run, shards=1, over an EU1-FTTH pcap; closed loop.
//	serve-churn  Server.Serve, shards=2, shedding on, 5-minute windows and
//	             streaming analytics, checkpoint restore; DNS-CHURN paced
//	             open loop at 200k pkt/s.
//	flood        Server.Serve, shards=1, closed loop over EU1-FTTH merged
//	             with a SYN flood and a random-subdomain DNS flood.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs untraced and
// traced repetitions alternately, replays the workload's recorded inputs
// through each layer's public API (the stage ledger), and prints the
// per-layer metrics. Inputs are generated from --seed before anything is
// timed. A failed correctness check exits with status 1 and prints no
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// gomaxprocs is the parallelism every workload runs at: the engine's
// shard count never exceeds it, so results do not depend on the host's
// core count above two.
const gomaxprocs = 2

// metric is one named result with its unit and how many samples it
// summarizes.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n int, note string) {
	m[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workload is one named benchmark scenario. prepare generates the seeded
// inputs; rep runs one measured repetition and checks its outputs.
type workload interface {
	prepare(seed uint64, dir string) error
	rep(tr *tracer) (*repResult, error)
	ledgerInput() *ledgerInput
	// e2eNsPerPkt is the per-packet cost the ledger's stages add up
	// against: wall time for closed loops, process CPU for the paced one.
	e2eNsPerPkt(r *repResult) float64
}

var workloads = map[string]func() workload{
	"batch-ftth":  func() workload { return &batchFTTH{} },
	"serve-churn": func() workload { return &serveChurn{} },
	"flood":       func() workload { return &flood{} },
}

// allWorkloads is the order --workload all runs them in.
var allWorkloads = []string{"batch-ftth", "serve-churn", "flood"}

func main() {
	name := flag.String("workload", "", "workload name: batch-ftth, serve-churn, flood, or all to run the three in turn")
	seed := flag.Uint64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced repetitions and the stage ledger")
	workdir := flag.String("workdir", ".bench_build", "directory for generated inputs and span dumps")
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = allWorkloads
	}
	_, ok := workloads[names[0]]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	for _, n := range names {
		res, err := run(workloads[n](), n, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if len(names) > 1 {
			fmt.Printf("== %s\n", n)
		}
		printResult(res)
	}
}

// run prepares the inputs, measures repetitions until the time is up and
// summarizes them. Every repetition is checked; the first failure aborts
// the run.
func run(w workload, name string, seed uint64, d time.Duration, traced bool, workdir string) (*result, error) {
	dir, err := os.MkdirTemp(workdir, "perfbench-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	if err := w.prepare(seed, dir); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inputs ready in %v\n", name, seed, time.Since(t0).Round(time.Millisecond))

	// Warm-up: repetitions that fill caches and grow the heap to its
	// working size, checked but not measured.
	for end := time.Now().Add(warmup); time.Now().Before(end); {
		runtime.GC()
		if _, err := w.rep(nil); err != nil {
			return nil, fmt.Errorf("warm-up repetition: %w", err)
		}
	}

	res := &result{Correct: true, Metrics: metricSet{}}
	var plain, withSpans []*repResult
	var lat hist // tag latencies of every untraced repetition
	tr := newTracer()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) || len(plain) < minReps; i++ {
		var t *tracer
		if traced && i%2 == 1 {
			t = tr
		}
		runtime.GC() // every repetition starts from the same heap state
		r, err := w.rep(t)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		res.Attempted += r.offered
		res.Failed += r.lost
		if t != nil {
			withSpans = append(withSpans, r)
		} else {
			lat.addAll(r.lat)
			plain = append(plain, r)
		}
		r.lat = nil // the next repetition reuses it
	}
	if !traced {
		summarize(plain, &lat, res.Metrics)
		return res, declared(res.Metrics, endToEndMetrics)
	}
	e2e := make([]float64, len(plain))
	for i, r := range plain {
		e2e[i] = w.e2eNsPerPkt(r)
	}
	e2eT := make([]float64, len(withSpans))
	for i, r := range withSpans {
		e2eT[i] = w.e2eNsPerPkt(r)
	}
	base := median(e2e)
	res.Metrics.set("trace.overhead_ratio", median(e2eT)/base, "ratio", len(e2eT), "traced over untraced end-to-end ns/pkt")
	servePerLayer(withSpans, res.Metrics)
	tagLatencyP99(&lat, res.Metrics)
	seamMetrics(tr, withSpans, res.Metrics)
	lt, err := ledgerMetrics(w.ledgerInput(), base, res.Metrics)
	if err != nil {
		return nil, fmt.Errorf("stage ledger: %w", err)
	}
	spanFile := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := writeSpans(spanFile, map[string]*tracer{"traced-repetitions": tr, "stage-ledger": lt}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len()+lt.len(), spanFile)
	return res, declared(res.Metrics, perLayerMetrics)
}

// declared checks that every metric BENCHMARK.json declares for the mode
// was measured, with the declared unit.
func declared(m metricSet, names []metricName) error {
	for _, d := range names {
		got, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if got.Unit != d.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.name, got.Unit, d.unit)
		}
	}
	if len(m) != len(names) {
		return fmt.Errorf("%d metrics measured, %d declared", len(m), len(names))
	}
	return nil
}

// metricName is one metric as BENCHMARK.json declares it.
type metricName struct{ name, unit string }

// endToEndMetrics and perLayerMetrics list BENCHMARK.json's end_to_end
// and per_layer metrics; TestDeclaredMetrics keeps the two in step.
var endToEndMetrics = []metricName{
	{"setup_s", "s"}, {"pkts_per_s", "1/s"}, {"tag_latency_p50_ms", "ms"},
	{"cpu_ns_per_pkt", "ns"}, {"delivered_ratio", "ratio"}, {"peak_heap_mb", "MB"},
	{"alloc_bytes_per_pkt", "B"}, {"allocs_per_pkt", "count"}, {"hit_ratio", "ratio"}, {"label_accuracy", "ratio"},
}

var perLayerMetrics = []metricName{
	{"netio.read_ns_per_pkt", "ns"}, {"netio.arena_reuse_ratio", "ratio"},
	{"layers.parse_ns_per_pkt", "ns"}, {"layers.malformed_ratio", "ratio"},
	{"flows.add_ns_per_pkt", "ns"}, {"flows.sweep_ms", "ms"}, {"flows.active_peak", "count"},
	{"flows.heap_bytes_per_flow", "B"}, {"flows.created", "count"},
	{"tlswire.inspect_ns_per_call", "ns"}, {"tlswire.useful_ratio", "ratio"},
	{"dnswire.unpack_ns_per_msg", "ns"}, {"dnswire.interned_names", "count"}, {"dnswire.malformed_ratio", "ratio"},
	{"resolver.insert_ns_per_op", "ns"}, {"resolver.lookup_ns_per_op", "ns"}, {"resolver.hit_ratio", "ratio"},
	{"resolver.evictions", "count"}, {"resolver.useless_dns_ratio", "ratio"},
	{"resolver.checkpoint_load_ms", "ms"}, {"resolver.checkpoint_write_ms", "ms"},
	{"flowdb.add_ns_per_flow", "ns"}, {"flowdb.window_flush_ms_p99", "ms"},
	{"analytics.observe_ms_per_window", "ms"},
	{"ledger.netio_ns_per_pkt", "ns"}, {"ledger.layers_ns_per_pkt", "ns"}, {"ledger.flows_ns_per_pkt", "ns"},
	{"ledger.dnswire_ns_per_pkt", "ns"}, {"ledger.resolver_ns_per_pkt", "ns"}, {"ledger.flowdb_ns_per_pkt", "ns"},
	{"ledger.analytics_ns_per_pkt", "ns"}, {"ledger.stage_sum_ns_per_pkt", "ns"}, {"ledger.e2e_ns_per_pkt", "ns"},
	{"core.residual_ns_per_pkt", "ns"}, {"core.ring_depth_max", "count"}, {"core.ring_full_parks", "count"},
	{"core.shed_drops", "count"}, {"core.drain_ms", "ms"}, {"core.tag_latency_p99_ms", "ms"},
	{"serve.scrape_ms_p99", "ms"}, {"loadgen.lag_p99_ms", "ms"},
	{"source.read_ns_per_pkt", "ns"}, {"sink.ns_per_pkt", "ns"}, {"trace.overhead_ratio", "ratio"},
}

// minReps is the fewest repetitions a run summarizes, however long each
// takes.
const minReps = 5

// warmup is how long a run repeats the workload before measuring: the
// first repetitions of a process run up to a third slower than later ones.
const warmup = 2 * time.Second

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("%-36s %14.6g %-6s n=%-7d %s\n", k, m.Value, m.Unit, m.n, m.note)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[k] = m
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
