package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric sets this program
// emits in step with the ones BENCHMARK.json declares, in order, with
// their units, and the workload list likewise.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
		}
		for i, m := range emitted {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, bench.Workloads[i].Name, w.name)
		}
	}
}
