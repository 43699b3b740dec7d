package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		t.Fatal(err)
	}
	return bs
}

func smokeConfig(t *testing.T, workload string, trace int) config {
	return config{workload: workload, seed: 7, seconds: 0.4, trace: trace,
		policyDir: "../policies", outDir: t.TempDir()}
}

// TestSmokeMetrics runs every workload briefly in both modes and checks
// that each metric BENCHMARK.json names is emitted with its unit, and
// that the outputs check out.
func TestSmokeMetrics(t *testing.T) {
	bs := loadSpec(t)
	for _, wl := range bs.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bs.EndToEnd, bs.PerLayer} {
			res, err := run(smokeConfig(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d",
					wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics emitted, BENCHMARK.json names %d",
					wl.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestSmokeCorruptedOutput corrupts one checked output in fifty and
// expects the output checks to count failures, clear correct and, in
// the traced run, raise failed_ratio.
func TestSmokeCorruptedOutput(t *testing.T) {
	for _, wl := range loadSpec(t).Workloads {
		cfg := smokeConfig(t, wl.Name, 0)
		cfg.corruptEvery = 50
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted outputs passed: correct=%v failed=%d attempted=%d",
				wl.Name, res.Correct, res.Failed, res.Attempted)
		}
	}
	cfg := smokeConfig(t, "ht_full_stack", 1)
	cfg.corruptEvery = 50
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Metrics["failed_ratio"].Value; r <= 0 || res.Correct {
		t.Errorf("traced run with corrupted outputs: failed_ratio=%g correct=%v", r, res.Correct)
	}
}
