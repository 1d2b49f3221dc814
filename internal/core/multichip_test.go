package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rckalign/internal/fault"
	"rckalign/internal/interchip"
	"rckalign/internal/metrics"
	"rckalign/internal/rckskel"
	"rckalign/internal/tmalign"
)

// TestMultiChipOneChipIsFlat is the contract that makes the multi-chip
// and memory-budget axes safe to expose everywhere: a 1-chip Config
// reproduces the unset-chips run identically — reports
// DeepEqual, same collection sequence — in the classic, wire-model and
// fault-tolerant configurations alike, and so does a budget the whole
// dataset fits in: flat is the one-stage, one-shard case.
func TestMultiChipOneChipIsFlat(t *testing.T) {
	pr := synthCK34PR()
	base, err := Run(pr, 12, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"classic", DefaultConfig},
		{"wire", func() Config {
			cfg := DefaultConfig()
			cfg.CacheStructs = 8
			cfg.Batch = 4
			return cfg
		}},
		{"faults", func() Config {
			cfg := DefaultConfig()
			cfg.Faults = &fault.Plan{
				Seed:  7,
				Kills: []fault.CoreFailure{{Core: 5, At: 0.3 * base.TotalSeconds}},
			}
			return cfg
		}},
		{"resident budget", func() Config {
			cfg := DefaultConfig()
			cfg.MemoryBudgetResidues = pr.Dataset.TotalResidues()
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(multi bool) (RunResult, []int) {
				var order []int
				cfg := tc.cfg()
				if multi {
					cfg.Chips = 1
				} else {
					cfg.MemoryBudgetResidues = 0
				}
				cfg.Collect = func(r rckskel.Result) { order = append(order, r.JobID) }
				r, err := Run(pr, 12, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return r, order
			}
			flat, flatOrder := run(false)
			multi, multiOrder := run(true)
			if !reflect.DeepEqual(flat, multi) {
				t.Errorf("1-chip multi-chip report differs from flat:\nflat  %+v\nmulti %+v", flat.Report, multi.Report)
			}
			if !reflect.DeepEqual(flatOrder, multiOrder) {
				t.Errorf("collection order differs (flat %d results, multi %d)", len(flatOrder), len(multiOrder))
			}
		})
	}
}

// multiChipCK34 runs the synthetic CK34 workload at the given chip
// count, returning the result and how often each pair's replayed
// tmalign.Result was collected.
func multiChipCK34(t *testing.T, pr *PairResults, chips, slavesPerChip int, mutate func(*Config)) (RunResult, map[*tmalign.Result]int) {
	t.Helper()
	seen := map[*tmalign.Result]int{}
	cfg := DefaultConfig()
	cfg.Chips = chips
	cfg.Collect = func(r rckskel.Result) {
		if res, ok := r.Payload.(*tmalign.Result); ok {
			seen[res]++
		}
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := Run(pr, slavesPerChip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, seen
}

func checkEveryPairOnce(t *testing.T, pr *PairResults, seen map[*tmalign.Result]int) {
	t.Helper()
	if len(seen) != len(pr.Results) {
		t.Fatalf("collected %d distinct pair results, want %d", len(seen), len(pr.Results))
	}
	for _, res := range pr.Results {
		if seen[res] != 1 {
			t.Errorf("pair result %p collected %d times", res, seen[res])
		}
	}
}

func TestMultiChipCompletesAllPairs(t *testing.T) {
	pr := synthCK34PR()
	for _, chips := range []int{2, 4} {
		r, seen := multiChipCK34(t, pr, chips, 12, nil)
		checkEveryPairOnce(t, pr, seen)
		if r.Chips != chips || len(r.PerChip) != chips {
			t.Fatalf("chips=%d: report Chips/PerChip = %d/%d", chips, r.Chips, len(r.PerChip))
		}
		for _, cr := range r.PerChip {
			if cr.Collected == 0 {
				t.Errorf("chips=%d: chip %d collected nothing (silent shard truncation?)", chips, cr.Chip)
			}
		}
		ic := r.Interchip
		if ic == nil || ic.Transfers == 0 || ic.Bytes == 0 {
			t.Fatalf("chips=%d: empty interchip block %+v", chips, ic)
		}
		if ic.ShardBytes == 0 || ic.ResultBytes == 0 {
			t.Errorf("chips=%d: shard/result byte split = %d/%d", chips, ic.ShardBytes, ic.ResultBytes)
		}
		// Aggregation keeps the root inbox shallow: at most one blob and
		// one done marker per chip can ever be queued at once, where the
		// per-pair protocol queued one message per remote pair.
		if ic.PeakRootInbox > 2*chips {
			t.Errorf("chips=%d: peak root inbox = %d, want <= %d", chips, ic.PeakRootInbox, 2*chips)
		}
		if ic.RootFlows < 1 {
			t.Errorf("chips=%d: root flows = %d", chips, ic.RootFlows)
		}
		if ic.ResultBytes >= ic.PerPairResultBytes {
			t.Errorf("chips=%d: aggregated result bytes %d not below per-pair %d",
				chips, ic.ResultBytes, ic.PerPairResultBytes)
		}
	}
}

// TestMultiChipSpeedup: four chips' worth of slaves must beat one
// chip's on the same workload — the whole point of scaling out.
func TestMultiChipSpeedup(t *testing.T) {
	pr := synthCK34PR()
	one, seen1 := multiChipCK34(t, pr, 1, 12, nil)
	four, seen4 := multiChipCK34(t, pr, 4, 12, nil)
	checkEveryPairOnce(t, pr, seen1)
	checkEveryPairOnce(t, pr, seen4)
	if four.TotalSeconds >= one.TotalSeconds {
		t.Errorf("4 chips (%v s) not faster than 1 chip (%v s)", four.TotalSeconds, one.TotalSeconds)
	}
}

func TestMultiChipWithWireModel(t *testing.T) {
	pr := synthCK34PR()
	r, seen := multiChipCK34(t, pr, 2, 12, func(cfg *Config) {
		cfg.CacheStructs = 8
		cfg.Batch = 4
	})
	checkEveryPairOnce(t, pr, seen)
	if r.Wire == nil || r.Wire.CacheHits == 0 {
		t.Fatalf("wire model off in multi-chip run: %+v", r.Wire)
	}
	for _, cr := range r.PerChip {
		if cr.Wire == nil || cr.Wire.Batches == 0 {
			t.Errorf("chip %d has no wire accounting: %+v", cr.Chip, cr.Wire)
		}
	}
}

func TestMultiChipDeterministic(t *testing.T) {
	pr := synthCK34PR()
	r1, _ := multiChipCK34(t, pr, 4, 8, nil)
	r2, _ := multiChipCK34(t, pr, 4, 8, nil)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("multi-chip runs diverge:\n%+v\n%+v", r1.Report, r2.Report)
	}
}

func TestMultiChipRejections(t *testing.T) {
	pr := synthCK34PR()
	reject := func(name string, mutate func(*Config)) {
		cfg := DefaultConfig()
		cfg.Chips = 2
		mutate(&cfg)
		if _, err := Run(pr, 8, cfg); err == nil {
			t.Errorf("%s: expected a rejection at chips > 1", name)
		}
	}
	reject("slaves", func(cfg *Config) { cfg.Chip.TilesX = 1; cfg.Chip.TilesY = 2 })
	// A plan must not kill any chip's master (every chip's local core 0).
	reject("kill sub-master", func(cfg *Config) {
		cfg.Faults = &fault.Plan{Kills: []fault.CoreFailure{{Core: 48, At: 1}}}
	})
}

// TestMultiChipFaults: a fault plan with global core ids is split
// per chip — kills on two different chips are recovered, every pair
// still completes exactly once, and the merged fault block reports
// global ids.
func TestMultiChipFaults(t *testing.T) {
	pr := synthCK34PR()
	base, seen := multiChipCK34(t, pr, 2, 12, nil)
	checkEveryPairOnce(t, pr, seen)
	at := 0.2 * base.TotalSeconds
	r, seen := multiChipCK34(t, pr, 2, 12, func(cfg *Config) {
		cfg.Faults = &fault.Plan{
			Seed: 11,
			// Core 5 lives on chip 0, core 48+7 on chip 1.
			Kills: []fault.CoreFailure{{Core: 5, At: at}, {Core: 55, At: at}},
		}
	})
	checkEveryPairOnce(t, pr, seen)
	fs := r.Faults
	if fs == nil {
		t.Fatal("fault-tolerant multi-chip run has no fault block")
	}
	if fs.Injected.CoresKilled != 2 || !reflect.DeepEqual(fs.DeadCores, []int{5, 55}) {
		t.Errorf("killed %d cores, dead = %v, want 2 and [5 55]", fs.Injected.CoresKilled, fs.DeadCores)
	}
	if len(r.PerChip) != 2 || r.PerChip[0].Faults == nil || r.PerChip[1].Faults == nil {
		t.Fatalf("per-chip fault blocks missing: %+v", r.PerChip)
	}
	if got := r.PerChip[1].Faults.DeadCores; !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("chip 1 local dead cores = %v, want [7]", got)
	}
}

// TestMultiChipAffinity: the cache-affinity deal runs per chip and
// still completes every pair exactly once.
func TestMultiChipAffinity(t *testing.T) {
	pr := synthCK34PR()
	r, seen := multiChipCK34(t, pr, 2, 12, func(cfg *Config) {
		cfg.Affinity = true
		cfg.CacheStructs = 8
	})
	checkEveryPairOnce(t, pr, seen)
	if r.Wire == nil || r.Wire.CacheHits == 0 {
		t.Fatalf("affinity multi-chip run has no cache accounting: %+v", r.Wire)
	}
	for _, cr := range r.PerChip {
		if cr.Collected == 0 {
			t.Errorf("chip %d collected nothing under affinity", cr.Chip)
		}
	}
}

func TestRunChipSweep(t *testing.T) {
	pr := synthCK34PR()
	cfg := MultiChipConfig{Config: DefaultConfig()}
	cfg.Interchip = interchip.DefaultConfig()
	results, err := RunChipSweep(pr, 8, []int{1, 2, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Chips != 0 {
		t.Errorf("1-chip sweep point should be the flat report (Chips=0), got %d", results[0].Chips)
	}
	if results[1].Chips != 2 || results[2].Chips != 4 {
		t.Errorf("chip counts = %d, %d, want 2, 4", results[1].Chips, results[2].Chips)
	}
}

// TestSweepHostParallelism: how many host cores run a sweep's points is
// invisible in its results. Points with sinks of their own run
// concurrently at GOMAXPROCS 4 and one by one at 1, with deeply equal
// reports (a fault plan rides along: it is shared, read-only); a Metrics
// registry shared across the points keeps them on one goroutine — under
// -race a concurrent write to it would be reported — and ends up with the
// same contents either way. The shared registry shows in no report
// field, the Metrics block included: every point's team counts its own
// mailbox and job stages, so on the CK34 pair cache each point of a
// shared-registry sweep equals a run of its own.
func TestSweepHostParallelism(t *testing.T) {
	pr := synthCK34PR()
	counts, chips := []int{1, 3, 8, 12, 20, 47}, []int{1, 2, 4}
	sweep := func(procs int, reg *metrics.Registry) (slaves, boards []RunResult, snapshot string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := DefaultConfig()
		cfg.Metrics = reg
		cfg.Faults = &fault.Plan{Seed: 7, Kills: []fault.CoreFailure{{Core: 3, At: 5}}}
		slaves, err := RunSweep(pr, counts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Interchip = interchip.DefaultConfig()
		boards, err = RunChipSweep(pr, 8, chips, MultiChipConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return slaves, boards, buf.String()
	}
	var bare []RunResult
	for _, shared := range []bool{false, true} {
		newReg := func() *metrics.Registry {
			if shared {
				return metrics.New()
			}
			return nil
		}
		slaves1, boards1, snap1 := sweep(1, newReg())
		slaves4, boards4, snap4 := sweep(4, newReg())
		if !reflect.DeepEqual(slaves1, slaves4) {
			t.Errorf("shared registry %v: RunSweep differs between GOMAXPROCS 1 and 4", shared)
		}
		if !reflect.DeepEqual(boards1, boards4) {
			t.Errorf("shared registry %v: RunChipSweep differs between GOMAXPROCS 1 and 4", shared)
		}
		if snap1 != snap4 {
			t.Errorf("shared registry %v: registry contents differ between GOMAXPROCS 1 and 4", shared)
		}
		all := append(slaves1, boards1...)
		if !shared {
			bare = all
		} else if !reflect.DeepEqual(all, bare) {
			t.Error("a registry shared by the sweep changed a report")
		}
	}

	ck := ck34PR(t)
	cfg := DefaultConfig()
	cfg.Metrics = metrics.New()
	points, err := RunSweep(ck, []int{47, 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{47, 3} {
		cfg.Metrics = metrics.New()
		own, err := Run(ck, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(points[i], own) {
			t.Errorf("%d slaves: shared-registry sweep point differs from a run of its own: compute stage %+v, want %+v",
				n, points[i].Metrics.JobStages["compute"], own.Metrics.JobStages["compute"])
		}
	}
}
