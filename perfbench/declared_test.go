package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDeclaredMetrics checks the metric lists the benchmark prints match
// BENCHMARK.json at the repository root, names and units, in order.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cmp := func(kind string, file []struct{ Name, Unit string }, code []metricName) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	cmp("end_to_end", b.EndToEnd, endToEndMetrics)
	cmp("per_layer", b.PerLayer, perLayerMetrics)
}

// TestSummarizeDeclares checks summarize measures every end-to-end
// metric, in its declared unit.
func TestSummarizeDeclares(t *testing.T) {
	r := &repResult{setupNs: 1, wallNs: 1e9, cpuNs: 1e9, pkts: 10, offered: 10, lookups: 4, hits: 3, labeled: 3, correct: 2}
	var lat hist
	lat.addAll([]int64{1e6, 2e6, 3e6})
	m := metricSet{}
	summarize([]*repResult{r, r}, &lat, m)
	if err := declared(m, endToEndMetrics); err != nil {
		t.Fatal(err)
	}
	if m["hit_ratio"].Value != 0.75 || m["pkts_per_s"].Value != 10 {
		t.Errorf("hit_ratio %v pkts_per_s %v", m["hit_ratio"].Value, m["pkts_per_s"].Value)
	}
}
