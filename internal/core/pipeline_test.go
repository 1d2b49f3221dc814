package core

import (
	"reflect"
	"strings"
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/sched"
)

// withoutFaults strips the Faults blocks a fault plan adds to a report.
func withoutFaults(r farm.Report) farm.Report {
	r.Faults = nil
	r.PerChip = append([]farm.ChipReport(nil), r.PerChip...)
	for c := range r.PerChip {
		r.PerChip[c].Faults = nil
	}
	return r
}

// TestCompositionMatrix is the contract of the one run pipeline: every
// {run shape} x {feature} cell accounts for every pair — collected with
// scores byte-identical to the flat run's, or reported lost under an
// injected kill — and shows the feature's trace in the report. No cell
// may silently ignore its feature, and an empty fault plan must be invisible: the report equals
// the plan-free run's but for the Faults blocks. DESIGN.md's composition
// table is this test's table.
func TestCompositionMatrix(t *testing.T) {
	pr := synthScoredCK34()
	want := scoresDump(t, pr, 1, nil)
	base, err := Run(pr, 12, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	budget := func(c *Config) { c.MemoryBudgetResidues = pr.Dataset.TotalResidues() / 3 }
	shapes := []struct {
		name string
		mut  func(*Config)
		// sorted marks a shape whose shards are already dealt pair by pair,
		// heaviest first (a stage too small for sched.ShardPairs to keep
		// tile blocks on four chips), so LPT cannot change them.
		sorted bool
	}{
		{"flat", func(*Config) {}, false},
		{"budget", budget, false},
		{"chips=2", func(c *Config) { c.Chips = 2 }, false},
		{"budget+chips=2", func(c *Config) { budget(c); c.Chips = 2 }, false},
		{"budget+chips=4,tree:2", func(c *Config) {
			budget(c)
			c.Chips, c.Gather = 4, farm.GatherConfig{Mode: farm.GatherTree, Arity: 2}
		}, true},
	}
	kill := fault.Plan{Seed: 3, Kills: []fault.CoreFailure{{Core: 5, At: 0.25 * base.TotalSeconds}}}
	affinity := func(c *Config) { c.Affinity = true; c.CacheStructs = 8 }
	emptyPlan := func(c *Config) { c.Faults = &fault.Plan{} }
	killPlan := func(c *Config) { plan := kill; c.Faults = &plan }
	killed := func(_, r RunResult) bool { return r.Faults != nil && r.Faults.Injected.CoresKilled == 1 }
	wantLines := map[string]bool{}
	for _, line := range strings.SplitAfter(want, "\n") {
		wantLines[line] = true
	}
	features := []struct {
		name string
		mut  func(*Config)
		// invisible marks an empty fault plan: stripped of its Faults
		// blocks, the report must equal the same run's without the plan.
		invisible bool
		// applied reports whether the run visibly honoured the feature,
		// given the same shape's featureless run.
		applied func(plain, r RunResult) bool
	}{
		{"cache+batch",
			func(c *Config) { c.CacheStructs = -1; c.Batch = 8 }, false,
			func(_, r RunResult) bool { return r.Wire != nil && r.Wire.Batches > 0 && r.Wire.CacheHits > 0 }},
		{"affinity", affinity, false,
			func(plain, r RunResult) bool {
				return r.Wire != nil && r.Wire.CacheHits > 0 && !reflect.DeepEqual(r.FarmStats.JobsPerSlave, plain.FarmStats.JobsPerSlave)
			}},
		{"empty fault plan", emptyPlan, true,
			func(_, r RunResult) bool { return r.Faults != nil }},
		{"kill plan", killPlan, false, killed},
		{"affinity+empty fault plan",
			func(c *Config) { affinity(c); emptyPlan(c) }, true,
			func(_, r RunResult) bool { return r.Faults != nil && r.Wire != nil }},
		{"affinity+kill plan",
			func(c *Config) { affinity(c); killPlan(c) }, false, killed},
		{"threads=2",
			func(c *Config) { c.ThreadsPerWorker = 2 }, false,
			func(plain, r RunResult) bool { return r.Workers*2 == plain.Workers }},
		{"LPT",
			func(c *Config) { c.Order = sched.LPT }, false,
			func(plain, r RunResult) bool { return r.TotalSeconds != plain.TotalSeconds }},
	}

	for _, shape := range shapes {
		cfg := DefaultConfig()
		shape.mut(&cfg)
		dump, plain, err := scoresRun(t, pr, cfg)
		if err != nil || dump != want {
			t.Fatalf("%s: featureless run: err %v, scores identical to flat: %t", shape.name, err, dump == want)
		}
		if strings.Contains(shape.name, "budget") != (plain.Tiled != nil) || strings.Contains(shape.name, "chips") != (plain.Interchip != nil) {
			t.Errorf("%s: report blocks Tiled=%v Interchip=%v do not match the shape", shape.name, plain.Tiled, plain.Interchip)
		}
		for _, feat := range features {
			t.Run(shape.name+"/"+feat.name, func(t *testing.T) {
				cfg := cfg
				feat.mut(&cfg)
				dump, r, err := scoresRun(t, pr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				lost := 0
				if r.Faults != nil {
					lost = r.Faults.LostJobs
				}
				if r.Collected+lost != len(pr.Pairs) || strings.Count(dump, "\n") != r.Collected {
					t.Errorf("collected %d + lost %d of %d pairs (%d score lines)", r.Collected, lost, len(pr.Pairs), strings.Count(dump, "\n"))
				}
				if lost == 0 && dump != want {
					t.Error("scores differ from the flat run's")
				}
				for _, line := range strings.SplitAfter(dump, "\n") {
					if !wantLines[line] {
						t.Errorf("collected score line %q is not the flat run's", line)
					}
				}
				applied := feat.applied(plain, r)
				if shape.sorted && feat.name == "LPT" {
					// LPT cannot reorder shards dealt heaviest first: the run is the plain one.
					applied = reflect.DeepEqual(r.Report, plain.Report)
				}
				if !applied {
					t.Errorf("feature left no trace in the report:\nplain %+v\n  got %+v", plain.Report, r.Report)
				}
				if feat.invisible {
					cfg.Faults = nil
					_, twin, err := scoresRun(t, pr, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := withoutFaults(r.Report); !reflect.DeepEqual(got, twin.Report) {
						t.Errorf("an empty plan changed the report:\n got %+v\nwant %+v", got, twin.Report)
					}
				}
			})
		}
	}
}
