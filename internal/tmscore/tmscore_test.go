package tmscore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
)

func TestD0Formula(t *testing.T) {
	// Canonical values: d0(100) = 1.24*cbrt(85)-1.8.
	want := 1.24*math.Cbrt(85) - 1.8
	p := FinalParams(100)
	if math.Abs(p.D0-want) > 1e-12 {
		t.Errorf("FinalParams(100).D0 = %v, want %v", p.D0, want)
	}
	// Short chains use the floor.
	if FinalParams(10).D0 != 0.5 {
		t.Errorf("FinalParams(10).D0 = %v, want 0.5", FinalParams(10).D0)
	}
	if FinalParams(21).D0 != 0.5 {
		t.Errorf("FinalParams(21).D0 = %v, want 0.5", FinalParams(21).D0)
	}
}

func TestD0Monotonic(t *testing.T) {
	prev := 0.0
	for l := 22; l < 1000; l += 7 {
		d0 := FinalParams(float64(l)).D0
		if d0 <= prev {
			t.Fatalf("d0 not increasing at L=%d: %v <= %v", l, d0, prev)
		}
		prev = d0
	}
}

func TestSearchParams(t *testing.T) {
	p := SearchParams(150, 100)
	if p.LNorm != 100 {
		t.Errorf("LNorm = %v, want min length", p.LNorm)
	}
	want := (1.24*math.Cbrt(100-15) - 1.8) + 0.8
	if math.Abs(p.D0-want) > 1e-12 {
		t.Errorf("search D0 = %v, want %v", p.D0, want)
	}
	if p.D0Search < 4.5 || p.D0Search > 8 {
		t.Errorf("D0Search = %v outside [4.5, 8]", p.D0Search)
	}
	wantD8 := 1.5*math.Pow(100, 0.3) + 3.5
	if math.Abs(p.ScoreD8-wantD8) > 1e-12 {
		t.Errorf("ScoreD8 = %v, want %v", p.ScoreD8, wantD8)
	}
	// Tiny chains: the fixed small d0.
	ps := SearchParams(10, 12)
	if math.Abs(ps.D0-(0.168+0.8)) > 1e-12 {
		t.Errorf("short-chain search D0 = %v", ps.D0)
	}
}

func TestD0SearchClamped(t *testing.T) {
	if p := SearchParams(2000, 2000); p.D0Search != 8 {
		t.Errorf("huge chains: D0Search = %v, want 8", p.D0Search)
	}
	if p := SearchParams(25, 25); p.D0Search != 4.5 {
		t.Errorf("small chains: D0Search = %v, want 4.5", p.D0Search)
	}
}

func randomTrace(rng *rand.Rand, n int) []geom.Vec3 {
	// A self-avoiding-ish random walk with CA-like 3.8 A steps.
	pts := make([]geom.Vec3, n)
	cur := geom.V(0, 0, 0)
	for i := range pts {
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Unit()
		cur = cur.Add(dir.Scale(3.8))
		pts[i] = cur
	}
	return pts
}

func TestSearchSelfAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randomTrace(rng, 120)
	// y = rigidly moved copy: TM-score must be ~1.
	g := geom.Transform{R: geom.RotY(1.0), T: geom.V(10, -4, 2)}
	y := make([]geom.Vec3, len(x))
	g.ApplyAll(y, x)

	p := SearchParams(len(x), len(y))
	tm, tr := p.SearchWS(new(kernel.Workspace), x, y, 40, nil)
	if tm < 0.999 {
		t.Fatalf("self TM-score = %v, want ~1", tm)
	}
	for i := range x {
		if tr.Apply(x[i]).Dist(y[i]) > 1e-3 {
			t.Fatalf("recovered transform wrong at %d", i)
		}
	}
}

func TestSearchPartialMatch(t *testing.T) {
	// First half matches rigidly, second half is noise: TM ~ 0.5 when
	// normalised by full length.
	rng := rand.New(rand.NewSource(15))
	n := 100
	x := randomTrace(rng, n)
	y := make([]geom.Vec3, n)
	g := geom.Transform{R: geom.RotX(0.7), T: geom.V(5, 5, 5)}
	g.ApplyAll(y, x)
	for i := n / 2; i < n; i++ {
		y[i] = y[i].Add(geom.V(rng.NormFloat64()*30, rng.NormFloat64()*30, rng.NormFloat64()*30))
	}
	p := FinalParams(float64(n))
	tm, _ := p.SearchWS(new(kernel.Workspace), x, y, 1, nil)
	if tm < 0.45 || tm > 0.75 {
		t.Errorf("half-match TM = %v, want in [0.45, 0.75]", tm)
	}
}

func TestSearchUnrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randomTrace(rng, 80)
	y := randomTrace(rng, 80)
	p := SearchParams(80, 80)
	tm, _ := p.SearchWS(new(kernel.Workspace), x, y, 40, nil)
	if tm > 0.45 {
		t.Errorf("unrelated random traces TM = %v, suspiciously high", tm)
	}
	if tm <= 0 {
		t.Errorf("TM = %v, must be positive", tm)
	}
}

func TestSearchScoreInUnitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(100)
		x := randomTrace(rng, n)
		y := randomTrace(rng, n)
		p := FinalParams(float64(n))
		tm, tr := p.SearchWS(new(kernel.Workspace), x, y, 40, nil)
		if tm < 0 || tm > 1+1e-9 {
			t.Fatalf("TM = %v outside [0,1]", tm)
		}
		if !tr.R.IsRotation(1e-6) {
			t.Fatal("Search returned a non-rotation")
		}
	}
}

func TestSearchBeatsSingleSuperposition(t *testing.T) {
	// Structure with matching core + flexible tail: iterative search must
	// be at least as good as a one-shot global superposition.
	rng := rand.New(rand.NewSource(18))
	n := 90
	x := randomTrace(rng, n)
	y := make([]geom.Vec3, n)
	g := geom.Transform{R: geom.RotZ(0.4), T: geom.V(1, 2, 3)}
	g.ApplyAll(y, x)
	for i := 60; i < n; i++ { // divergent tail
		y[i] = y[i].Add(geom.V(rng.NormFloat64()*15, rng.NormFloat64()*15, rng.NormFloat64()*15))
	}
	p := FinalParams(float64(n))
	tmSearch, _ := p.SearchWS(new(kernel.Workspace), x, y, 1, nil)
	one, _ := geom.Superpose(x, y)
	tmOne := p.ScoreWithTransform(x, y, one, nil)
	if tmSearch < tmOne-1e-9 {
		t.Errorf("Search TM %v worse than single superposition %v", tmSearch, tmOne)
	}
	if tmSearch < 0.6 {
		t.Errorf("core should score well, TM = %v", tmSearch)
	}
}

func TestSearchTinyInputs(t *testing.T) {
	p := FinalParams(4)
	x := []geom.Vec3{{0, 0, 0}, {3.8, 0, 0}, {7.6, 0, 0}, {11.4, 0, 0}}
	tm, _ := p.SearchWS(new(kernel.Workspace), x, x, 1, nil)
	if tm < 0.99 {
		t.Errorf("tiny self comparison TM = %v", tm)
	}
	// Empty alignment.
	tm, _ = p.SearchWS(new(kernel.Workspace), nil, nil, 1, nil)
	if tm != 0 {
		t.Errorf("empty Search TM = %v, want 0", tm)
	}
	// Single pair.
	tm, tr := p.SearchWS(new(kernel.Workspace), x[:1], x[:1], 1, nil)
	if tm <= 0 {
		t.Errorf("single-pair TM = %v", tm)
	}
	if !tr.R.IsRotation(1e-9) {
		t.Errorf("single-pair Search returned a non-rotation")
	}
	// Two pairs: below the smallest L_ini fragment (4), the seed ladder
	// and the cutoff-relaxation guard (nCut < 3 only when n > 3) must
	// still converge on the identity-superposable pair. Normalise by the
	// actual length so a perfect match scores ~1.
	tm, tr = FinalParams(2).SearchWS(new(kernel.Workspace), x[:2], x[:2], 1, nil)
	if tm < 0.99 {
		t.Errorf("two-pair self TM = %v, want ~1", tm)
	}
	if !tr.R.IsRotation(1e-9) {
		t.Errorf("two-pair Search returned a non-rotation")
	}
	// Three pairs, displaced copy: superposition must recover it.
	y := make([]geom.Vec3, 3)
	g := geom.Transform{R: geom.RotZ(0.9), T: geom.V(-3, 7, 1)}
	g.ApplyAll(y, x[:3])
	tm, _ = FinalParams(3).SearchWS(new(kernel.Workspace), x[:3], y, 1, nil)
	if tm < 0.99 {
		t.Errorf("three-pair rigid-copy TM = %v, want ~1", tm)
	}
}

// TestSearchWSMatchesSearch verifies that a reused (dirty) workspace is
// invisible: a search on one Workspace carried across calls of different
// sizes gives the scores, transforms and charged ops of a search on a
// fresh one.
func TestSearchWSMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := kernel.Get()
	defer kernel.Put(w)
	for _, n := range []int{5, 37, 80, 11} { // descending sizes exercise stale scratch
		x := randomTrace(rng, n)
		y := randomTrace(rng, n)
		p := SearchParams(n, n)
		var opsFresh, opsWS costmodel.Counter
		tm1, tr1 := p.SearchWS(new(kernel.Workspace), x, y, 40, &opsFresh)
		tm2, tr2 := p.SearchWS(w, x, y, 40, &opsWS)
		if tm1 != tm2 {
			t.Errorf("n=%d: fresh TM %v != reused TM %v", n, tm1, tm2)
		}
		if tr1 != tr2 {
			t.Errorf("n=%d: transforms differ:\n%v\n%v", n, tr1, tr2)
		}
		if opsFresh != opsWS {
			t.Errorf("n=%d: ops differ: %+v vs %+v", n, opsFresh, opsWS)
		}
	}
}

func TestSearchMismatchedPanic(t *testing.T) {
	defer func() {
		rec := recover()
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrAlignedLength) {
			t.Errorf("panic value %v does not wrap ErrAlignedLength", rec)
		}
	}()
	FinalParams(10).SearchWS(new(kernel.Workspace), make([]geom.Vec3, 3), make([]geom.Vec3, 4), 1, nil)
}

func TestSearchOpsCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := randomTrace(rng, 50)
	y := randomTrace(rng, 50)
	var ops costmodel.Counter
	SearchParams(50, 50).SearchWS(new(kernel.Workspace), x, y, 40, &ops)
	if ops.KabschCalls == 0 || ops.ScoreEvals == 0 || ops.RotationOps == 0 {
		t.Errorf("search charged no ops: %+v", ops)
	}
}

func TestScoreWithTransformD8Cutoff(t *testing.T) {
	// A pair beyond d8 must contribute 0 in search mode but > 0 in final
	// mode.
	x := []geom.Vec3{{0, 0, 0}, {3.8, 0, 0}, {7.6, 0, 0}, {11.4, 0, 0}}
	y := []geom.Vec3{{0, 0, 0}, {3.8, 0, 0}, {7.6, 0, 0}, {11.4, 100, 0}}
	id := geom.IdentityTransform()

	search := SearchParams(4, 4)
	final := FinalParams(4)
	sSearch := search.ScoreWithTransform(x, y, id, nil)
	sFinal := final.ScoreWithTransform(x, y, id, nil)

	// In both cases 3 pairs coincide; the far pair only counts in final
	// mode. D0 differs between modes, so compare against per-mode bounds.
	if sSearch >= 3.0001/search.LNorm*1.0001 {
		t.Errorf("search-mode score %v includes the far pair", sSearch)
	}
	wantMin := 3.0 / final.LNorm
	if sFinal <= wantMin {
		t.Errorf("final-mode score %v should include the far pair (> %v)", sFinal, wantMin)
	}
}

func TestFinalSimplifyStepNotWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := randomTrace(rng, 70)
	y := make([]geom.Vec3, 70)
	g := geom.Transform{R: geom.RotX(1.2), T: geom.V(3, 1, -2)}
	g.ApplyAll(y, x)
	for i := 40; i < 70; i++ {
		y[i] = y[i].Add(geom.V(rng.NormFloat64()*8, rng.NormFloat64()*8, rng.NormFloat64()*8))
	}
	p := FinalParams(70)
	tmFast, _ := p.SearchWS(new(kernel.Workspace), x, y, 40, nil)
	tmFull, _ := p.SearchWS(new(kernel.Workspace), x, y, 1, nil)
	if tmFull < tmFast-1e-9 {
		t.Errorf("step-1 search (%v) must not be worse than step-40 (%v)", tmFull, tmFast)
	}
}

func BenchmarkSearch150Step40(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	x := randomTrace(rng, 150)
	y := randomTrace(rng, 150)
	p := SearchParams(150, 150)
	w := new(kernel.Workspace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SearchWS(w, x, y, 40, nil)
	}
}

// ScoreWithTransform returns the TM-score of the fixed alignment under a
// given transform of x, without searching (pairs beyond ScoreD8 excluded
// when it is set): the single-superposition baseline the search tests
// compare SearchWS with.
func (p Params) ScoreWithTransform(x, y []geom.Vec3, tr geom.Transform, ops *costmodel.Counter) float64 {
	if len(x) != len(y) {
		panic(fmt.Errorf("%w (ScoreWithTransform: %d vs %d)", ErrAlignedLength, len(x), len(y)))
	}
	w := kernel.Get()
	defer kernel.Put(w)
	n := len(x)
	w.ReserveSearch(n)
	ops.AddScore(n)
	ops.AddRotate(n)
	xc, yc := geom.ColsOf(w.SearchCols, n, x), geom.ColsOf(w.SearchCols[3*n:], n, y)
	sum, _ := geom.ScorePass(nil, w.SearchDis2, &tr, xc, yc, p.D0*p.D0, p.ScoreD8*p.ScoreD8, 0, !(p.ScoreD8 <= 0))
	return sum / p.LNorm
}
