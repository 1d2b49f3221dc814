package mcpsc

import (
	"math"
	"testing"

	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// testMethods is the three-method set the commands and tables run.
func testMethods() []Method {
	return []Method{TMAlign{Opt: tmalign.FastOptions()}, GaplessRMSD{}, ContactOverlap{}}
}

func TestMethodsSelfSimilarity(t *testing.T) {
	ds := synth.Small(4, 9)
	s := ds.Structures[0]
	for _, m := range testMethods() {
		sc := m.Compare(s, s)
		if sc.Method == "" {
			t.Errorf("%T has empty name", m)
		}
		if sc.Value < 0.9 {
			t.Errorf("%s self similarity = %v, want ~1", m.Name(), sc.Value)
		}
		if sc.Value > 1.000001 {
			t.Errorf("%s self similarity = %v > 1", m.Name(), sc.Value)
		}
	}
}

func TestMethodsDiscriminate(t *testing.T) {
	// Family member must outscore a cross-family structure for every
	// method.
	ds := synth.Small(6, 10) // fa01..fa03, fb01..fb03
	base, member, other := ds.Structures[0], ds.Structures[1], ds.Structures[3]
	for _, m := range testMethods() {
		same := m.Compare(base, member).Value
		diff := m.Compare(base, other).Value
		if same <= diff {
			t.Errorf("%s: family %v <= cross-family %v", m.Name(), same, diff)
		}
	}
}

func TestMethodsChargeOps(t *testing.T) {
	ds := synth.Small(4, 11)
	for _, m := range testMethods() {
		sc := m.Compare(ds.Structures[0], ds.Structures[2])
		total := sc.Ops.DPCells + sc.Ops.KabschCalls + sc.Ops.ScoreEvals
		if total == 0 {
			t.Errorf("%s charged no ops", m.Name())
		}
	}
}

func TestZScores(t *testing.T) {
	z := ZScores([]float64{1, 2, 3, 4, 5})
	if math.Abs(z[2]) > 1e-12 {
		t.Errorf("middle z = %v", z[2])
	}
	if z[0] >= 0 || z[4] <= 0 {
		t.Errorf("z order wrong: %v", z)
	}
	if math.Abs(z[0]+z[4]) > 1e-12 {
		t.Errorf("not symmetric: %v", z)
	}
	// Degenerate cases.
	for _, xs := range [][]float64{nil, {3}, {2, 2, 2}} {
		for _, v := range ZScores(xs) {
			if v != 0 {
				t.Errorf("degenerate ZScores(%v) has nonzero %v", xs, v)
			}
		}
	}
}

func TestConsensusAgreesWithUnanimousMethods(t *testing.T) {
	a := []float64{0.9, 0.2, 0.5}
	b := []float64{0.8, 0.1, 0.6}
	c := Consensus([][]float64{a, b})
	if !(c[0] > c[2] && c[2] > c[1]) {
		t.Errorf("consensus order wrong: %v", c)
	}
}

func TestConsensusPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Consensus([][]float64{{1, 2}, {1}})
}

func TestRank(t *testing.T) {
	r := Rank([]float64{0.2, 0.9, 0.5})
	if r[0] != 1 || r[1] != 2 || r[2] != 0 {
		t.Errorf("rank = %v", r)
	}
	if len(Rank(nil)) != 0 {
		t.Error("Rank(nil)")
	}
	// Stable for ties.
	r2 := Rank([]float64{0.5, 0.5})
	if r2[0] != 0 || r2[1] != 1 {
		t.Errorf("tie rank = %v", r2)
	}
}

func TestRunOneVsAll(t *testing.T) {
	ds := synth.Small(6, 12)
	methods := []Method{TMAlign{Opt: tmalign.FastOptions()}, GaplessRMSD{}}
	r, err := RunOneVsAll(ds, 0, methods, 4, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Targets) != 5 {
		t.Fatalf("targets = %v", r.Targets)
	}
	if r.TotalSeconds <= 0 {
		t.Error("no simulated time")
	}
	for _, m := range methods {
		scores := r.PerMethod[m.Name()]
		if len(scores) != 5 {
			t.Fatalf("%s scores = %v", m.Name(), scores)
		}
		for i, s := range scores {
			if s < 0 || s > 1.000001 {
				t.Errorf("%s score[%d] = %v", m.Name(), i, s)
			}
		}
	}
	if len(r.Consensus) != 5 || len(r.Ranking) != 5 {
		t.Fatal("consensus missing")
	}
	// Query fa01 (index 0): family members fa02, fa03 (dataset indices
	// 1, 2) must rank above the fb structures.
	top2 := map[int]bool{r.RankedTargets()[0]: true, r.RankedTargets()[1]: true}
	if !top2[1] || !top2[2] {
		t.Errorf("family members not ranked top: %v (per-method %v)", r.RankedTargets(), r.PerMethod)
	}
	if r.SlavesPerMethod["tmalign"] == 0 || r.SlavesPerMethod["gapless-rmsd"] == 0 {
		t.Errorf("slave partition: %v", r.SlavesPerMethod)
	}
}

func TestRunOneVsAllValidation(t *testing.T) {
	ds := synth.Small(4, 13)
	methods := testMethods()
	if _, err := RunOneVsAll(ds, -1, methods, 6, DefaultRunConfig()); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := RunOneVsAll(ds, 0, nil, 6, DefaultRunConfig()); err == nil {
		t.Error("no methods accepted")
	}
	if _, err := RunOneVsAll(ds, 0, methods, 2, DefaultRunConfig()); err == nil {
		t.Error("fewer slaves than methods accepted")
	}
	if _, err := RunOneVsAll(ds, 0, methods, 99, DefaultRunConfig()); err == nil {
		t.Error("too many slaves accepted")
	}
}

func TestRunOneVsAllMoreSlavesFaster(t *testing.T) {
	ds := synth.Small(6, 14)
	methods := []Method{GaplessRMSD{}, ContactOverlap{}}
	slow, err := RunOneVsAll(ds, 0, methods, 2, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunOneVsAll(ds, 0, methods, 8, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fast.TotalSeconds >= slow.TotalSeconds {
		t.Errorf("8 slaves (%v) not faster than 2 (%v)", fast.TotalSeconds, slow.TotalSeconds)
	}
}
