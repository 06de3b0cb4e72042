package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCode checks that the repository's BENCHMARK.json
// lists exactly the workloads and metrics this program reports, with the
// same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not registered", w.Name)
		}
	}
	e2e := map[string]string{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = m.unit
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if u, ok := e2e[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s (%s): program reports unit %q", m.Name, m.Unit, u)
		}
	}
	layer := map[string]layerMetric{}
	for _, l := range layerMetrics {
		layer[l.name] = l
	}
	if len(b.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(b.PerLayer), len(layer))
	}
	for _, m := range b.PerLayer {
		l, ok := layer[m.Name]
		if !ok || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer %s (%s, %s): program has %+v", m.Name, m.Unit, m.Better, l)
		}
	}
}

func TestLatencyFloor(t *testing.T) {
	for name, w := range workloads {
		if err := checkLatency(w.options()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	o := baseOptions()
	o.StorageWriteLatency = 500 * time.Microsecond
	if checkLatency(o) == nil {
		t.Error("a 500µs write latency was accepted")
	}
	o = baseOptions()
	o.StorageReadLatency = 0
	if checkLatency(o) == nil {
		t.Error("a zero read latency was accepted")
	}
}
