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
