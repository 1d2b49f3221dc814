package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// synthScoredCK34 is synthCK34PR with per-pair distinguishable scores,
// so a scores dump detects a lost, duplicated or mis-routed result —
// not just a miscount.
func synthScoredCK34() *PairResults {
	pr := synthCK34PR()
	for k, p := range pr.Pairs {
		r := pr.Results[k]
		r.TM1 = 1 / float64(1+p.I*37+p.J)
		r.TM2 = 1 / float64(1+p.J*53+p.I)
		r.RMSD = float64(p.I ^ p.J)
		r.AlignedLen = min(r.Len1, r.Len2)
	}
	return pr
}

// scoresRun runs the workload and renders every collected result as a
// -scores-out style line at full float precision, sorted by pair so the
// dump is arrival-order independent (the determinism rule each gather
// level must honour).
func scoresRun(t *testing.T, pr *PairResults, cfg Config) (string, RunResult, error) {
	t.Helper()
	pairOf := map[*tmalign.Result]sched.Pair{}
	for k, p := range pr.Pairs {
		pairOf[pr.Results[k]] = p
	}
	var lines []string
	cfg.Collect = func(r rckskel.Result) {
		res, ok := r.Payload.(*tmalign.Result)
		if !ok {
			t.Errorf("collected a non-result payload %T", r.Payload)
			return
		}
		p, ok := pairOf[res]
		if !ok {
			t.Error("collected a result that is not in the workload")
			return
		}
		lines = append(lines, fmt.Sprintf("%d %d %.17g %.17g %.17g %d\n",
			p.I, p.J, res.TM1, res.TM2, res.RMSD, res.AlignedLen))
	}
	r, err := Run(pr, 12, cfg)
	sort.Strings(lines)
	return strings.Join(lines, ""), r, err
}

// scoresDump is scoresRun on the default config at the given chip
// count, for runs that must succeed.
func scoresDump(t *testing.T, pr *PairResults, chips int, mutate func(*Config)) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Chips = chips
	if mutate != nil {
		mutate(&cfg)
	}
	dump, _, err := scoresRun(t, pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

// TestGatherScoresByteIdenticalToFlat is the aggregation correctness
// golden: at every chip count, under every gather topology, fault-free
// and with core kills, the multi-chip run yields the byte-identical
// scores dump the flat single-master run produces. Aggregation, the
// gather tree and per-chip fault recovery may change timing and wire
// accounting — never results.
func TestGatherScoresByteIdenticalToFlat(t *testing.T) {
	pr := synthScoredCK34()
	want := scoresDump(t, pr, 1, nil)
	if strings.Count(want, "\n") != len(pr.Pairs) {
		t.Fatalf("flat dump has %d lines, want %d", strings.Count(want, "\n"), len(pr.Pairs))
	}
	base, err := Run(pr, 12, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kills := &fault.Plan{Seed: 3, Kills: []fault.CoreFailure{{Core: 5, At: 0.25 * base.TotalSeconds}}}

	for _, chips := range []int{1, 2, 4, 8} {
		for _, g := range []struct {
			name string
			farm.GatherConfig
		}{
			{"flat", farm.GatherConfig{Mode: farm.GatherFlat}},
			{"tree(arity=2)", farm.GatherConfig{Mode: farm.GatherTree, Arity: 2}},
			{"tree(arity=4)", farm.GatherConfig{Mode: farm.GatherTree, Arity: 4}},
		} {
			for _, faulted := range []bool{false, true} {
				name := fmt.Sprintf("chips=%d/%s/faults=%t", chips, g.name, faulted)
				t.Run(name, func(t *testing.T) {
					got := scoresDump(t, pr, chips, func(cfg *Config) {
						cfg.Gather = g.GatherConfig
						if faulted {
							cfg.Faults = kills
						}
					})
					if got != want {
						t.Errorf("scores dump differs from flat (len %d vs %d)", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestAggregationBeatsPerPairWire pins the tentpole's byte accounting
// on an RS119-sized workload: at 8 chips the aggregate blobs must cost
// fewer fabric bytes than the per-pair counterfactual the report also
// carries. Flat gather (every chip ships straight to the root) is the
// apples-to-apples comparison — a deep tree relays blobs over extra
// hops and may legitimately exceed the per-pair total.
func TestAggregationBeatsPerPairWire(t *testing.T) {
	ds := synth.RS119()
	lengths := make([]int, ds.Len())
	for i, s := range ds.Structures {
		lengths[i] = s.Len()
	}
	pr := SynthPairResults("RS119-synth", lengths)
	cfg := DefaultConfig()
	cfg.Chips, cfg.Gather = 8, farm.GatherConfig{Mode: farm.GatherFlat}
	r, err := Run(pr, 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ic := r.Interchip
	if ic.ResultBytes >= ic.PerPairResultBytes {
		t.Errorf("aggregated result bytes %d not below per-pair %d", ic.ResultBytes, ic.PerPairResultBytes)
	}
	if ic.AggMessages >= int64(len(pr.Pairs)) {
		t.Errorf("%d aggregate messages for %d pairs — aggregation is not aggregating", ic.AggMessages, len(pr.Pairs))
	}
}
