package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartileSpread returns (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(v, n=4) gives, the rule the acceptance check
// uses; ok is false with fewer than two values.
func quartileSpread(v []float64) (spread float64, ok bool) {
	if len(v) < 2 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	sp := (q(3) - q(1)) / med
	if sp < 0 {
		sp = -sp
	}
	return sp, true
}

func loadSuite(path string) (*suiteFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

func (f *suiteFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if mv, ok := r.Workloads[workload].Metrics[metric]; ok {
			out = append(out, mv.Value)
		}
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the bound, and a verdict: regressed when b
// is worse by more than the bound, unresolved when either side's
// quartile spread is wider than the bound (unless every run of b beats
// every run of a), ok otherwise. It fails if any row is not ok.
func compareFiles(bf *benchmarkFile, pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a = %s (%d runs), b = %s (%d runs)\n", pathA, len(a.Runs), pathB, len(b.Runs))
	fmt.Printf("%-22s %-22s %12s %12s %9s %7s %8s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "spread", "verdict")
	bad := 0
	for _, w := range bf.Workloads {
		for _, sp := range bf.EndToEnd {
			va, vb := a.values(w.Name, sp.Name), b.values(w.Name, sp.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-22s %-22s missing in one file\n", w.Name, sp.Name)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if sp.Better == "higher" {
				worse = -worse
			}
			sa, okA := quartileSpread(va)
			sb, okB := quartileSpread(vb)
			spread := sa
			if sb > spread {
				spread = sb
			}
			verdict := "ok"
			switch {
			case okA && okB && spread > sp.Bound && !allBetter(va, vb, sp.Better):
				verdict = "unresolved"
			case worse > sp.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("%-22s %-22s %12.6g %12.6g %+8.2f%% %6.1f%% %7.2f%%  %s\n",
				w.Name, sp.Name, ma, mb, 100*worse, 100*sp.Bound, 100*spread, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved or missing", bad)
	}
	return nil
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if better == "higher" && y <= x || better != "higher" && y >= x {
				return false
			}
		}
	}
	return true
}
