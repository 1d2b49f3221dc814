package main

import (
	"encoding/json"
	"regexp"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json once, untraced and
// traced, on shrunken datasets through the code the benchmark runs, and
// checks that each run reports exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{bf.EndToEnd, bf.PerLayer} {
		for _, sp := range list {
			if !nameRE.MatchString(sp.Name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", sp.Name)
			}
			if seen[sp.Name] {
				t.Errorf("metric %q is named twice", sp.Name)
			}
			seen[sp.Name] = true
		}
	}
	size := smallSizing(1)
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
		for _, trace := range []bool{false, true} {
			cfg := runConfig{bench: bf, root: root, seed: 1, seconds: 0, trace: trace, workers: 2, size: size, traceDir: t.TempDir()}
			res, _, err := runWorkload(w.Name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, sp := range want {
				if mv, ok := res.Metrics[sp.Name]; !ok || mv.Unit != sp.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", w.Name, trace, sp.Name, mv.Unit, sp.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			buf, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back runResult
			if err := json.Unmarshal(buf, &back); err != nil {
				t.Fatalf("%s: result does not round-trip: %v", w.Name, err)
			}
			if len(back.Metrics) != len(res.Metrics) || back.Attempted != res.Attempted {
				t.Errorf("%s: result changed in the JSON round trip", w.Name)
			}
		}
	}
}
