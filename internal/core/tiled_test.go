package core

import (
	"encoding/json"
	"reflect"
	"testing"
)

// budgeted returns the default config under a master memory budget.
func budgeted(residues int) Config {
	cfg := DefaultConfig()
	cfg.MemoryBudgetResidues = residues
	return cfg
}

func totalResidues(pr *PairResults) int {
	n := 0
	for _, s := range pr.Dataset.Structures {
		n += s.Len()
	}
	return n
}

func TestBlockPartition(t *testing.T) {
	lengths := []int{10, 20, 30, 40, 50}
	blocks, err := blockPartition(lengths, 120) // half-budget 60
	if err != nil {
		t.Fatal(err)
	}
	// Every index appears exactly once, in order.
	var flat []int
	for _, b := range blocks {
		total := 0
		for _, i := range b {
			total += lengths[i]
		}
		if total > 60 {
			t.Errorf("block %v exceeds half budget: %d", b, total)
		}
		flat = append(flat, b...)
	}
	if len(flat) != 5 {
		t.Fatalf("partition lost chains: %v", blocks)
	}
	for i, idx := range flat {
		if idx != i {
			t.Fatalf("partition reordered: %v", blocks)
		}
	}
	// A chain bigger than half the budget is rejected.
	if _, err := blockPartition([]int{100}, 120); err == nil {
		t.Error("oversized chain accepted")
	}
}

func TestRunTiledCompletesAllPairs(t *testing.T) {
	pr := smallPR
	budget := totalResidues(pr) / 2 // forces multiple blocks
	r, err := Run(pr, 4, budgeted(budget))
	if err != nil {
		t.Fatal(err)
	}
	if r.Collected != len(pr.Pairs) {
		t.Fatalf("collected %d of %d pairs", r.Collected, len(pr.Pairs))
	}
	if r.Tiled == nil {
		t.Fatal("budgeted run has no Tiled report block")
	}
	if r.Tiled.Blocks < 2 {
		t.Errorf("expected multiple blocks, got %d", r.Tiled.Blocks)
	}
	if r.Tiled.BlockLoads <= r.Tiled.Blocks {
		t.Errorf("off-diagonal tiles should force reloads: %d loads for %d blocks", r.Tiled.BlockLoads, r.Tiled.Blocks)
	}
	if r.Tiled.ReloadSeconds <= 0 {
		t.Error("no reload time recorded")
	}
}

func TestRunTiledUnlimitedBudgetMatchesFlat(t *testing.T) {
	pr := smallPR
	// On one chip and on boards alike, 0 = unlimited and a budget the
	// whole dataset fits in is the same run, JSON byte for byte.
	for _, chips := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Chips = chips
		flat, err := Run(pr, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(flat)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, totalResidues(pr)} {
			cfg.MemoryBudgetResidues = budget
			r, err := Run(pr, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Tiled != nil {
				t.Errorf("chips %d, budget %d: resident dataset reported a block schedule %+v", chips, budget, r.Tiled)
			}
			if got, err := json.Marshal(r); err != nil || string(got) != string(want) {
				t.Errorf("chips %d, budget %d: report differs from the unbudgeted run's (err %v):\n got %s\nwant %s", chips, budget, err, got, want)
			}
		}
	}
}

func TestRunTiledOverheadBounded(t *testing.T) {
	// Tiling costs reloads and per-tile farm tails, but must stay within
	// a modest factor of the flat run for this workload.
	pr := smallPR
	flat, err := Run(pr, 4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(pr, 4, budgeted(totalResidues(pr)/2))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSeconds < flat.TotalSeconds {
		t.Errorf("tiled (%v) cannot beat flat (%v): same work plus reloads", r.TotalSeconds, flat.TotalSeconds)
	}
	// With an 8-chain dataset the tiles hold only 1-4 jobs each, so the
	// per-tile farm barrier serialises most of the work across 4 slaves;
	// ~2x over flat is the honest cost of out-of-core at this tiny
	// scale (it amortises away when tiles hold >> slaves jobs).
	if r.TotalSeconds > flat.TotalSeconds*3 {
		t.Errorf("tiled overhead too large: %v vs %v", r.TotalSeconds, flat.TotalSeconds)
	}
}

func TestRunTiledValidation(t *testing.T) {
	pr := smallPR
	if _, err := Run(pr, 0, budgeted(1000)); err == nil {
		t.Error("0 slaves accepted")
	}
	// Budget smaller than twice the largest chain must fail.
	if _, err := Run(pr, 4, budgeted(10)); err == nil {
		t.Error("tiny budget accepted")
	}
}

func TestRunTiledDeterministic(t *testing.T) {
	pr := smallPR
	cfg := budgeted(totalResidues(pr) / 2)
	a, err := Run(pr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pr, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("tiled run not deterministic")
	}
}

func TestThreadedWorkers(t *testing.T) {
	pr := smallPR
	single, err := Run(pr, 8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ThreadsPerWorker = 2
	dual, err := Run(pr, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same 8 cores as 4 dual-threaded workers: aggregate throughput is
	// 2*0.9*4 = 7.2 core-equivalents vs 8, so the threaded run must be
	// somewhat slower overall...
	if dual.TotalSeconds < single.TotalSeconds {
		t.Errorf("dual-threaded (%v) cannot beat single-threaded (%v) on throughput", dual.TotalSeconds, single.TotalSeconds)
	}
	// ...but not by more than the efficiency loss plus tail effects.
	if dual.TotalSeconds > single.TotalSeconds*1.5 {
		t.Errorf("threading overhead too large: %v vs %v", dual.TotalSeconds, single.TotalSeconds)
	}
	if dual.Collected != len(pr.Pairs) {
		t.Errorf("collected %d", dual.Collected)
	}
	// Per-job latency halves (roughly): with 2 cores per job and only 4
	// workers, each worker handles ~7 jobs at ~55% of the serial job
	// time.
	workers := 0
	for range dual.FarmStats.JobsPerSlave {
		workers++
	}
	if workers != 4 {
		t.Errorf("dual-threaded run used %d workers, want 4", workers)
	}
}

func TestThreadedValidation(t *testing.T) {
	pr := smallPR
	cfg := DefaultConfig()
	cfg.ThreadsPerWorker = 4
	if _, err := Run(pr, 2, cfg); err == nil {
		t.Error("2 cores cannot form a 4-thread worker")
	}
}
