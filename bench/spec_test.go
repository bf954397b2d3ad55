package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonBounded  `json:"end_to_end"`
	PerLayer   []jsonLayer    `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in
// the code together: same workloads, same metrics, same units and bounds.
// With UPDATE_BENCHMARK_JSON=1 it rewrites the file from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		var want benchmarkJSON
		want.Command = []string{"bash", "bench/run.sh"}
		want.Paths = []string{"bench"}
		want.RunSeconds = 18
		for _, w := range workloads() {
			want.Workloads = append(want.Workloads, jsonWorkload{w.name, w.why})
		}
		for _, b := range endToEndSpec {
			want.EndToEnd = append(want.EndToEnd, jsonBounded{b.name, b.unit, b.better, b.bound})
		}
		for _, l := range perLayerSpec {
			want.PerLayer = append(want.PerLayer, jsonLayer{l.name, l.unit, l.better})
		}
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(got.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if got.Workloads[i].Name != w.name || got.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, got.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters (limit 200)", w.name, len(w.why))
		}
	}
	if len(got.EndToEnd) != len(endToEndSpec) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(got.EndToEnd), len(endToEndSpec))
	}
	for i, b := range endToEndSpec {
		g := got.EndToEnd[i]
		if g.Name != b.name || g.Unit != b.unit || g.Better != b.better || g.Bound != b.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, g, b)
		}
	}
	if len(got.PerLayer) != len(perLayerSpec) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(got.PerLayer), len(perLayerSpec))
	}
	for i, l := range perLayerSpec {
		g := got.PerLayer[i]
		if g.Name != l.name || g.Unit != l.unit || g.Better != l.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, g, l)
		}
	}
	if len(got.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics (limit 128)", len(got.PerLayer))
	}
}
