package tmalign

import (
	"math"
	"math/rand"
	"testing"

	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/ss"
	"rckalign/internal/synth"
)

func helixProtein(id string, n int, seed int64) *pdb.Structure {
	return synth.Generate(id, synth.Blueprint{
		{Type: ss.Helix, Len: n / 3},
		{Type: ss.Coil, Len: 5},
		{Type: ss.Strand, Len: n / 4},
		{Type: ss.Coil, Len: 4},
		{Type: ss.Helix, Len: n - n/3 - n/4 - 9},
	}, seed)
}

func TestSelfComparisonIsPerfect(t *testing.T) {
	s := helixProtein("p", 90, 1)
	r := Compare(s, s, DefaultOptions())
	if r.TM1 < 0.999 || r.TM2 < 0.999 {
		t.Errorf("self TM = %v / %v, want ~1", r.TM1, r.TM2)
	}
	if r.RMSD > 1e-6 {
		t.Errorf("self RMSD = %v", r.RMSD)
	}
	if r.AlignedLen != s.Len() {
		t.Errorf("self aligned %d of %d", r.AlignedLen, s.Len())
	}
	if r.SeqID != 1 {
		t.Errorf("self SeqID = %v", r.SeqID)
	}
	// Identity alignment.
	for j, i := range r.Invmap {
		if i != j {
			t.Fatalf("self alignment is not identity at %d -> %d", j, i)
		}
	}
}

func TestRigidMotionInvariance(t *testing.T) {
	s := helixProtein("p", 80, 2)
	moved := s.Clone()
	g := geom.Transform{R: geom.AxisAngle(geom.V(1, 2, 3), 1.9), T: geom.V(30, -12, 7)}
	for i := range moved.Residues {
		moved.Residues[i].CA = g.Apply(moved.Residues[i].CA)
	}
	r := Compare(s, moved, DefaultOptions())
	if r.TM1 < 0.999 {
		t.Errorf("rigidly moved copy TM = %v, want ~1", r.TM1)
	}
	if r.RMSD > 1e-3 {
		t.Errorf("rigidly moved copy RMSD = %v", r.RMSD)
	}
	// The recovered transform must map chain 1 onto chain 2.
	for i := range s.Residues {
		got := r.Transform.Apply(s.Residues[i].CA)
		if got.Dist(moved.Residues[i].CA) > 1e-2 {
			t.Fatalf("transform wrong at %d: off by %v", i, got.Dist(moved.Residues[i].CA))
		}
	}
}

func TestFamilyMembersScoreHigh(t *testing.T) {
	base := helixProtein("base", 100, 3)
	member := synth.Perturb(base, "member", synth.PerturbOptions{Noise: 0.8, Indels: 1, MutateFrac: 0.3}, 4)
	r := Compare(base, member, DefaultOptions())
	if r.TM1 < 0.5 {
		t.Errorf("family member TM1 = %v, want > 0.5", r.TM1)
	}
	if r.RMSD > 4 {
		t.Errorf("family member RMSD = %v, want small", r.RMSD)
	}
}

func TestUnrelatedScoreLow(t *testing.T) {
	a := synth.Generate("a", synth.Blueprint{{Type: ss.Helix, Len: 20}, {Type: ss.Coil, Len: 8}, {Type: ss.Helix, Len: 20}, {Type: ss.Coil, Len: 8}, {Type: ss.Helix, Len: 20}}, 5)
	b := synth.Generate("b", synth.Blueprint{{Type: ss.Strand, Len: 9}, {Type: ss.Coil, Len: 5}, {Type: ss.Strand, Len: 9}, {Type: ss.Coil, Len: 5}, {Type: ss.Strand, Len: 9}, {Type: ss.Coil, Len: 5}, {Type: ss.Strand, Len: 9}}, 6)
	r := Compare(a, b, DefaultOptions())
	if r.TM() > 0.5 {
		t.Errorf("unrelated folds TM = %v, suspiciously high", r.TM())
	}
}

func TestScoresInRangeAndMapValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := synth.Small(6, 8)
	for i := 0; i < ds.Len(); i++ {
		for j := i + 1; j < ds.Len(); j++ {
			if rng.Float64() < 0.4 {
				continue // subsample to keep the test fast
			}
			r := Compare(ds.Structures[i], ds.Structures[j], FastOptions())
			if r.TM1 < 0 || r.TM1 > 1+1e-9 || r.TM2 < 0 || r.TM2 > 1+1e-9 {
				t.Fatalf("%s: TM out of range: %v %v", r, r.TM1, r.TM2)
			}
			if !seqalign.IsMonotonic(r.Invmap, r.Len1) {
				t.Fatalf("%s: invalid alignment", r)
			}
			if r.AlignedLen > min(r.Len1, r.Len2) {
				t.Fatalf("%s: aligned %d > min length", r, r.AlignedLen)
			}
			if r.SeqID < 0 || r.SeqID > 1 {
				t.Fatalf("%s: SeqID %v", r, r.SeqID)
			}
			if !r.Transform.R.IsRotation(1e-6) {
				t.Fatalf("%s: non-rotation transform", r)
			}
		}
	}
}

func TestNormalizationAsymmetry(t *testing.T) {
	// A short chain fully contained in a long chain: TM normalised by the
	// short length should be much higher than by the long length.
	long := helixProtein("long", 150, 9)
	short := &pdb.Structure{ID: "short", Chain: 'A'}
	short.Residues = append(short.Residues, long.Residues[20:80]...)
	r := Compare(long, short, DefaultOptions())
	if r.TM2 < r.TM1 {
		t.Errorf("TM2 (norm by short len, %v) should exceed TM1 (norm by long len, %v)", r.TM2, r.TM1)
	}
	if r.TM2 < 0.8 {
		t.Errorf("contained fragment TM2 = %v, want high", r.TM2)
	}
}

func TestCompareSymmetryApproximate(t *testing.T) {
	// TM-align is not exactly symmetric, but swapping arguments must swap
	// the normalisations approximately.
	a := helixProtein("a", 90, 10)
	b := synth.Perturb(a, "b", synth.PerturbOptions{Noise: 1.2, Indels: 2}, 11)
	r1 := Compare(a, b, DefaultOptions())
	r2 := Compare(b, a, DefaultOptions())
	if math.Abs(r1.TM1-r2.TM2) > 0.1 || math.Abs(r1.TM2-r2.TM1) > 0.1 {
		t.Errorf("asymmetry too large: %v/%v vs %v/%v", r1.TM1, r1.TM2, r2.TM1, r2.TM2)
	}
}

func TestDegenerateInputs(t *testing.T) {
	tiny := pdb.FromCAs("tiny", []geom.Vec3{{0, 0, 0}, {3.8, 0, 0}}, "AG")
	ok := helixProtein("ok", 60, 12)
	r := Compare(tiny, ok, DefaultOptions())
	if r.AlignedLen != 0 || r.TM1 != 0 {
		t.Errorf("degenerate input produced TM=%v aligned=%d", r.TM1, r.AlignedLen)
	}
	r = Compare(ok, tiny, DefaultOptions())
	if r.AlignedLen != 0 {
		t.Errorf("degenerate input (2nd) produced aligned=%d", r.AlignedLen)
	}
}

func TestOpsCounted(t *testing.T) {
	a := helixProtein("a", 70, 13)
	b := helixProtein("b", 80, 14)
	r := Compare(a, b, DefaultOptions())
	if r.Ops.DPCells == 0 || r.Ops.KabschCalls == 0 || r.Ops.ScoreEvals == 0 {
		t.Errorf("ops not counted: %s", r.Ops.String())
	}
	// A bigger problem must cost more.
	c := helixProtein("c", 150, 15)
	d := helixProtein("d", 160, 16)
	r2 := Compare(c, d, DefaultOptions())
	if r2.Ops.DPCells <= r.Ops.DPCells {
		t.Errorf("larger pair has fewer DP cells: %d <= %d", r2.Ops.DPCells, r.Ops.DPCells)
	}
}

func TestDeterminism(t *testing.T) {
	a := helixProtein("a", 85, 17)
	b := synth.Perturb(a, "b", synth.PerturbOptions{Noise: 1.5, Indels: 1}, 18)
	r1 := Compare(a, b, DefaultOptions())
	r2 := Compare(a, b, DefaultOptions())
	if r1.TM1 != r2.TM1 || r1.TM2 != r2.TM2 || r1.AlignedLen != r2.AlignedLen || r1.RMSD != r2.RMSD {
		t.Error("Compare is not deterministic")
	}
	for j := range r1.Invmap {
		if r1.Invmap[j] != r2.Invmap[j] {
			t.Fatal("alignment not deterministic")
		}
	}
}

func TestFastOptionsCloseToDefault(t *testing.T) {
	a := helixProtein("a", 90, 19)
	b := synth.Perturb(a, "b", synth.PerturbOptions{Noise: 1.0, Indels: 1}, 20)
	rd := Compare(a, b, DefaultOptions())
	rf := Compare(a, b, FastOptions())
	if rf.TM1 < rd.TM1-0.15 {
		t.Errorf("fast mode much worse: %v vs %v", rf.TM1, rd.TM1)
	}
	if rf.Ops.DPCells >= rd.Ops.DPCells {
		t.Errorf("fast mode not cheaper: %d vs %d DP cells", rf.Ops.DPCells, rd.Ops.DPCells)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SimplifyStep != 40 || o.FinalStep != 1 || o.MaxDPIters != 30 {
		t.Errorf("withDefaults = %+v", o)
	}
	o2 := Options{SimplifyStep: 5}.withDefaults()
	if o2.SimplifyStep != 5 || o2.FinalStep != 1 {
		t.Errorf("partial defaults = %+v", o2)
	}
}

// TestOptionsKey: the key is the pairstore's kernel component, so options
// that behave alike must share one and options that do not must differ.
func TestOptionsKey(t *testing.T) {
	cases := []struct {
		name  string
		a, b  Options
		equal bool
	}{
		{"default vs fast", DefaultOptions(), FastOptions(), false},
		{"zero value is default", Options{}, DefaultOptions(), true},
		{"partial zero takes defaults", Options{SimplifyStep: 40}, DefaultOptions(), true},
		{"equal options", FastOptions(), FastOptions(), true},
		{"one field apart", DefaultOptions(), Options{SimplifyStep: 40, FinalStep: 1, MaxDPIters: 30, SkipLocalInit: true}, false},
	}
	for _, tc := range cases {
		if got := tc.a.Key() == tc.b.Key(); got != tc.equal {
			t.Errorf("%s: Key %q vs %q, equal = %v, want %v", tc.name, tc.a.Key(), tc.b.Key(), got, tc.equal)
		}
	}
}

func TestResultString(t *testing.T) {
	a := helixProtein("alpha", 60, 21)
	r := Compare(a, a, FastOptions())
	s := r.String()
	if s == "" || r.TM() <= 0 {
		t.Error("String/TM broken")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkCompareMedium(b *testing.B) {
	x := helixProtein("x", 150, 22)
	y := synth.Perturb(x, "y", synth.PerturbOptions{Noise: 1.2, Indels: 2}, 23)
	opt := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(x, y, opt)
	}
}

func BenchmarkCompareFast(b *testing.B) {
	x := helixProtein("x", 150, 22)
	y := synth.Perturb(x, "y", synth.PerturbOptions{Noise: 1.2, Indels: 2}, 23)
	opt := FastOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(x, y, opt)
	}
}
