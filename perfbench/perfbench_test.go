package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with
// perfbench's workload and metric tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	var gotE []metricDef
	for _, m := range b.EndToEnd {
		gotE = append(gotE, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, perfbench has %v", gotE, endToEnd)
	}
	var gotL []metricDef
	for _, m := range b.PerLayer {
		gotL = append(gotL, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(gotL, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, perfbench has %v", gotL, perLayer)
	}
}

// shortRun runs perfbench briefly against the source tree one level up.
func shortRun(t *testing.T, name string, seed int64, seconds float64, trace bool) *report {
	t.Helper()
	rep, err := run(options{
		workload: name, seed: seed, seconds: seconds, trace: trace,
		root: "..", out: t.TempDir(), setups: 2, openRequests: 24,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.summary.Correct {
		t.Fatalf("%s: incorrect: %v", name, rep.Problems)
	}
	if rep.summary.Attempted < 1 {
		t.Fatalf("%s: attempted %d", name, rep.summary.Attempted)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(rep.summary.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", name, len(rep.summary.Metrics), len(defs))
	}
	return rep
}

// TestShortRuns drives every workload for a few seconds and checks the
// answers, the output shape, the bypass predictions each workload is
// built on, and that simulated times repeat exactly for a seed.
func TestShortRuns(t *testing.T) {
	zc := shortRun(t, "table2-zc", 3, 5, true)
	if v := zc.Metrics["core.decide_calls"]; v != 0 {
		t.Errorf("table2-zc: core.decide_calls = %g, want 0", v)
	}
	if v := zc.Metrics["service.cache_hit_ratio"]; v != 0 {
		t.Errorf("table2-zc: service.cache_hit_ratio = %g, want 0", v)
	}
	if again := shortRun(t, "table2-zc", 3, 5, false); !reflect.DeepEqual(zc.SimNS, again.SimNS) {
		t.Errorf("table2-zc: simulated times differ between runs of one seed")
	}

	hot := shortRun(t, "hot-flaky", 3, 5, true)
	if v := hot.Metrics["service.retries"]; v <= 0 {
		t.Errorf("hot-flaky: service.retries = %g, want > 0", v)
	}
	if v := hot.Metrics["service.cache_hit_ratio"]; v <= 0 {
		t.Errorf("hot-flaky: service.cache_hit_ratio = %g, want > 0", v)
	}

	cxl := shortRun(t, "adaptive-cxl", 3, 5, true)
	if again := shortRun(t, "adaptive-cxl", 3, 5, false); !reflect.DeepEqual(cxl.SimNS, again.SimNS) {
		t.Errorf("adaptive-cxl: simulated times differ between runs of one seed")
	}
	if v := cxl.Metrics["memsys.cxl_requests"]; v <= 0 {
		t.Errorf("adaptive-cxl: memsys.cxl_requests = %g, want > 0", v)
	}
	if v := cxl.Metrics["core.decide_calls"]; v <= 0 {
		t.Errorf("adaptive-cxl: core.decide_calls = %g, want > 0", v)
	}
}
