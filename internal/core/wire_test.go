package core

import (
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/rckskel"
	"rckalign/internal/tmalign"
)

// collectPayloads runs the config and returns how often each result
// payload (a *tmalign.Result, pointer-identical to pr.Results) was
// collected, plus the run result.
func collectPayloads(t *testing.T, pr *PairResults, slaves int, cfg Config) (map[*tmalign.Result]int, RunResult) {
	t.Helper()
	got := map[*tmalign.Result]int{}
	cfg.Collector = farm.CollectorFunc(func(r rckskel.Result) {
		got[r.Payload.(*tmalign.Result)]++
	})
	res, err := Run(pr, slaves, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// checkComplete asserts every pair's result was collected exactly once.
func checkComplete(t *testing.T, pr *PairResults, got map[*tmalign.Result]int, label string) {
	t.Helper()
	if len(got) != len(pr.Results) {
		t.Fatalf("%s: collected %d distinct results, want %d", label, len(got), len(pr.Results))
	}
	for k, r := range pr.Results {
		if got[r] != 1 {
			t.Errorf("%s: pair %v collected %d times", label, pr.Pairs[k], got[r])
		}
	}
}

// TestWireModelEquivalence is the tentpole's correctness core: caching,
// batching, blocked ordering and affinity only re-frame the wire
// protocol, so every configuration must deliver exactly the same result
// set — the same *tmalign.Result per pair, exactly once — as the
// classic one-message-per-job farm.
func TestWireModelEquivalence(t *testing.T) {
	pr := synthCK34PR()
	const slaves = 47
	classic, _ := collectPayloads(t, pr, slaves, DefaultConfig())
	checkComplete(t, pr, classic, "classic")

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"cached", func(c *Config) { c.CacheStructs = -1 }},
		{"batched", func(c *Config) { c.Batch = 8 }},
		{"cached+batched", func(c *Config) { c.CacheStructs = -1; c.Batch = 8 }},
		{"cached+batched+affinity", func(c *Config) { c.CacheStructs = -1; c.Batch = 8; c.Affinity = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			got, res := collectPayloads(t, pr, slaves, cfg)
			checkComplete(t, pr, got, tc.name)
			if res.Wire == nil {
				t.Fatal("wire-model run produced no Wire report block")
			}
			if res.Wire.ShippedInputBytes >= res.Wire.BaselineInputBytes {
				t.Errorf("wire model shipped %d >= baseline %d bytes",
					res.Wire.ShippedInputBytes, res.Wire.BaselineInputBytes)
			}
		})
	}
}

// TestWireReductionAcceptance pins the PR's headline number: on a
// CK34-sized workload with 47 slaves, the cached+batched+affinity wire
// ships at least 5x fewer input bytes than the classic
// ship-both-structures model.
func TestWireReductionAcceptance(t *testing.T) {
	pr := synthCK34PR()
	cfg := DefaultConfig()
	cfg.CacheStructs = -1
	cfg.Batch = 8
	cfg.Affinity = true
	got, res := collectPayloads(t, pr, 47, cfg)
	checkComplete(t, pr, got, "cached+batched+affinity")
	if res.Wire.InputReduction < 5 {
		t.Errorf("input reduction = %.2fx, want >= 5x (baseline %d B, shipped %d B)",
			res.Wire.InputReduction, res.Wire.BaselineInputBytes, res.Wire.ShippedInputBytes)
	}
	if res.Wire.CacheHitRate <= 0.5 {
		t.Errorf("affinity hit rate = %.2f, want > 0.5", res.Wire.CacheHitRate)
	}
}

// TestBatchingRelievesMasterMailbox checks the second acceptance
// criterion: at heavy polling cost (the master-bottleneck regime),
// batching lowers the peak number of slaves parked waiting for the
// master to collect.
func TestBatchingRelievesMasterMailbox(t *testing.T) {
	pr := synthCK34PR()
	peak := func(mut func(*Config)) float64 {
		cfg := DefaultConfig()
		cfg.PollingScale = 1e5
		cfg.Metrics = metrics.New()
		mut(&cfg)
		res, err := Run(pr, 47, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics == nil {
			t.Fatal("metrics block missing")
		}
		return res.Metrics.PeakMailboxDepth
	}
	base := peak(func(c *Config) {})
	batched := peak(func(c *Config) { c.CacheStructs = -1; c.Batch = 8 })
	if base <= 1 {
		t.Fatalf("polling 1e5 did not congest the classic master (peak %v); the comparison is vacuous", base)
	}
	if batched >= base {
		t.Errorf("peak mailbox depth: batched %v >= classic %v", batched, base)
	}
}

// TestWireEquivalenceUnderFaults runs the cached+batched wire through
// a farm with mid-run core kills: a batch is one fault-tolerance unit,
// and recovery must still deliver every pair exactly once.
func TestWireEquivalenceUnderFaults(t *testing.T) {
	pr := synthCK34PR()
	base, err := Run(pr, 47, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheStructs = -1
	cfg.Batch = 4
	cfg.Faults = &fault.Plan{
		Seed: 11,
		Kills: []fault.CoreFailure{
			{Core: 9, At: 0.25 * base.TotalSeconds},
			{Core: 31, At: 0.5 * base.TotalSeconds},
		},
	}
	got, res := collectPayloads(t, pr, 47, cfg)
	checkComplete(t, pr, got, "cached+batched under kills")
	if res.Faults == nil || res.Faults.Injected.CoresKilled != 2 {
		t.Fatalf("fault stats = %+v", res.Faults)
	}
	if res.Faults.Timeouts == 0 || res.Faults.Retries == 0 {
		t.Errorf("kills left no recovery trace: %+v", res.Faults)
	}
	if res.Faults.LostJobs != 0 {
		t.Errorf("lost %d jobs", res.Faults.LostJobs)
	}
	if res.Wire == nil || res.Wire.Batches == 0 {
		t.Errorf("wire block missing on a batched FT run: %+v", res.Wire)
	}
}
