package seqalign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/synth"
)

// TestGrowSliceGeometric pins the amortised-growth contract of the DP
// scratch: when a buffer must be reallocated, capacity at least doubles,
// and a request that fits the existing capacity never reallocates.
func TestGrowSliceGeometric(t *testing.T) {
	a := NewAligner()
	a.grow(10, 10) // 121 cells
	c1 := cap(a.val)
	if c1 < 121 {
		t.Fatalf("cap after grow(10,10) = %d, want >= 121", c1)
	}
	// One cell over capacity: geometric growth must at least double,
	// not allocate the exact new size.
	a.grow(11, 11) // 144 cells — under 2*121
	if cap(a.val) < 2*c1 {
		t.Errorf("cap after grow(11,11) = %d, want >= %d (geometric doubling)", cap(a.val), 2*c1)
	}
	// A smaller request reuses the buffer.
	c2 := cap(a.val)
	a.grow(5, 5)
	if cap(a.val) != c2 {
		t.Errorf("grow(5,5) reallocated: cap %d -> %d", c2, cap(a.val))
	}
	if len(a.val) != 36 || len(a.path) != 36 {
		t.Errorf("grow(5,5) lengths = %d/%d, want 36", len(a.val), len(a.path))
	}

	// A jump far beyond double allocates the requested size.
	s := growSlice([]float64(nil), 7)
	if len(s) != 7 || cap(s) < 7 {
		t.Fatalf("growSlice(nil, 7): len %d cap %d", len(s), cap(s))
	}
	s = growSlice(s, 1000)
	if len(s) != 1000 || cap(s) < 1000 {
		t.Errorf("growSlice to 1000: len %d cap %d", len(s), cap(s))
	}
}

// TestAlignerReuseNoAllocs is the allocation regression for the shared
// scratch: once an Aligner has seen its largest problem, further calls
// of any variant at that size or below must not allocate.
func TestAlignerReuseNoAllocs(t *testing.T) {
	a := NewAligner()
	const len1, len2 = 90, 70
	score := func(i, j int) float64 {
		if (i+j)%3 == 0 {
			return 1
		}
		return -0.2
	}
	mat := make([]float64, len1*len2)
	for i := 0; i < len1; i++ {
		for j := 0; j < len2; j++ {
			mat[i*len2+j] = score(i, j)
		}
	}
	invmap := make([]int, len2)

	// Warm every variant so all lazily-sized buffers exist.
	a.Align(len1, len2, score, -0.6, invmap, nil)
	a.AlignMatrix(len1, len2, mat, -0.6, invmap, nil)

	cases := []struct {
		name string
		run  func()
	}{
		{"Align", func() { a.Align(len1, len2, score, -0.6, invmap, nil) }},
		{"AlignSmaller", func() { a.Align(30, 20, score, -0.6, invmap[:20], nil) }},
		{"AlignMatrix", func() { a.AlignMatrix(len1, len2, mat, -0.6, invmap, nil) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s on a warm Aligner: %.1f allocs/run, want 0", tc.name, allocs)
		}
	}
}

// TestGaplessThreadingZeroVisit pins the documented contract: when
// minOverlap exceeds the shorter chain, no diagonal can satisfy it and
// the callback is never invoked.
func TestGaplessThreadingZeroVisit(t *testing.T) {
	cases := []struct{ len1, len2, minOverlap int }{
		{5, 10, 6},  // minOverlap > len1
		{10, 5, 6},  // minOverlap > len2
		{3, 3, 4},   // minOverlap > both
		{0, 10, 1},  // empty chain 1
		{10, 0, 1},  // empty chain 2
		{7, 9, 100}, // far beyond both
	}
	for _, tc := range cases {
		visits := 0
		GaplessThreading(tc.len1, tc.len2, tc.minOverlap, func(k, lo, hi int) { visits++ })
		if visits != 0 {
			t.Errorf("GaplessThreading(%d, %d, %d): %d visits, want 0",
				tc.len1, tc.len2, tc.minOverlap, visits)
		}
	}
	// Boundary: minOverlap exactly min(len1, len2) yields exactly one
	// full-overlap diagonal per offset that fits.
	visits := 0
	GaplessThreading(5, 5, 5, func(k, lo, hi int) {
		visits++
		if k != 0 || lo != 0 || hi != 5 {
			t.Errorf("full-overlap visit = (%d, %d, %d), want (0, 0, 5)", k, lo, hi)
		}
	})
	if visits != 1 {
		t.Errorf("GaplessThreading(5, 5, 5): %d visits, want 1", visits)
	}
}

// TestAlignMatrixMatchesAlign verifies the dense-matrix fast path is a
// pure re-expression of Align: identical alignments, DP tables and DP
// charges on random score matrices, with and without a gap penalty (-0
// and -Inf included), with NaN and infinite scores sprinkled in,
// including degenerate empty dimensions.
func TestAlignMatrixMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := []struct{ len1, len2 int }{
		{1, 1}, {1, 7}, {7, 1}, {13, 17}, {40, 40}, {64, 31},
		{0, 5}, {5, 0}, {0, 0},
	}
	for _, gapOpen := range []float64{0, math.Copysign(0, -1), -0.6, -2.5, math.Inf(-1)} {
		for k, d := range dims {
			mat := make([]float64, d.len1*d.len2)
			for i := range mat {
				mat[i] = rng.NormFloat64()
				if k%2 == 1 && rng.Intn(8) == 0 {
					mat[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
				}
			}
			score := func(i, j int) float64 { return mat[i*d.len2+j] }

			a1, a2 := NewAligner(), NewAligner()
			inv1 := make([]int, d.len2)
			inv2 := make([]int, d.len2)
			var ops1, ops2 costmodel.Counter
			a1.Align(d.len1, d.len2, score, gapOpen, inv1, &ops1)
			a2.AlignMatrix(d.len1, d.len2, mat, gapOpen, inv2, &ops2)

			for j := range inv1 {
				if inv1[j] != inv2[j] {
					t.Fatalf("dims %dx%d gap %g: invmap differs at j=%d: %d vs %d",
						d.len1, d.len2, gapOpen, j, inv1[j], inv2[j])
				}
			}
			for c := 0; c < (d.len1+1)*(d.len2+1); c++ {
				v1, v2 := a1.val[c], a2.val[c]
				if a1.path[c] != a2.path[c] || (v1 != v2 && !(v1 != v1 && v2 != v2)) {
					t.Fatalf("dims %dx%d gap %g: DP cell %d differs: %v/%t vs %v/%t",
						d.len1, d.len2, gapOpen, c, v1, a1.path[c], v2, a2.path[c])
				}
			}
			if ops1.DPCells != ops2.DPCells {
				t.Errorf("dims %dx%d gap %g: DP charge differs: %d vs %d",
					d.len1, d.len2, gapOpen, ops1.DPCells, ops2.DPCells)
			}
			if !IsMonotonic(inv1, d.len1) {
				t.Errorf("dims %dx%d gap %g: non-monotonic alignment", d.len1, d.len2, gapOpen)
			}
		}
	}
}

// TestAlignGapFreeMatchesAlignMatrix requires the fused gap-free round
// to leave the value table, alignment and DP charge of the score-matrix
// fill plus AlignMatrix(…, 0, …), to the last bit. The rounds are real:
// initialLocal's fragment superpositions (at its d0+1.5) and the gapless
// overlap superposition (at the search d0) of CK34 and RS119 pairs, the
// longest RS119 prune survivor among them, plus random rigid motions. One
// pair of aligners serves every round, so stale cells of a larger earlier
// table are in play.
func TestAlignGapFreeMatchesAlignMatrix(t *testing.T) {
	ck, rs := synth.CK34(), synth.RS119()
	pairs := []struct {
		name string
		x, y []geom.Vec3
	}{
		{"CK34 0-1", ck.Structures[0].CAs(), ck.Structures[1].CAs()},
		{"CK34 3-15", ck.Structures[3].CAs(), ck.Structures[15].CAs()},
		{"CK34 33-20", ck.Structures[33].CAs(), ck.Structures[20].CAs()},
		{"RS119 70-73", rs.Structures[70].CAs(), rs.Structures[73].CAs()},
		{"RS119 0-1", rs.Structures[0].CAs(), rs.Structures[1].CAs()},
		{"RS119 90-5", rs.Structures[90].CAs(), rs.Structures[5].CAs()},
	}
	rng := rand.New(rand.NewSource(28))
	a1, a2 := NewAligner(), NewAligner()
	check := func(what string, xt, y []geom.Vec3, d02 float64) {
		t.Helper()
		yx, yy, yz := mirror(y)
		inv1, inv2 := make([]int, len(y)), make([]int, len(y))
		var ops1, ops2 costmodel.Counter
		a1.AlignMatrix(len(xt), len(y), scoreMatrix(xt, yx, yy, yz, d02), 0, inv1, &ops1)
		a2.AlignGapFree(xt, quadMirror(y), d02, inv2, &ops2)
		for c := 0; c < (len(xt)+1)*(len(y)+1); c++ {
			i, j := c/(len(y)+1), c%(len(y)+1)
			if v := gapFreeCell(a2, i, j, len(y)); math.Float64bits(a1.val[c]) != math.Float64bits(v) {
				t.Fatalf("%s: DP cell (%d, %d) = %x, AlignMatrix %x", what, i, j, v, a1.val[c])
			}
		}
		for j := range inv1 {
			if inv1[j] != inv2[j] {
				t.Fatalf("%s: invmap[%d] = %d, AlignMatrix %d", what, j, inv2[j], inv1[j])
			}
		}
		if ops1 != ops2 {
			t.Fatalf("%s: ops %+v, AlignMatrix %+v", what, ops2, ops1)
		}
	}
	rounds := 0
	for _, p := range pairs {
		x, y := p.x, p.y
		d0 := searchD0(min(len(x), len(y)))
		check(p.name+" overlap", overlapRound(x, y), y, d0*d0)
		const frag = 20
		xt := make([]geom.Vec3, len(x))
		for i := 0; i+frag <= len(x); i += 3 * frag {
			for j := 0; j+frag <= len(y); j += 2 * frag {
				tr, _ := geom.Superpose(x[i:i+frag], y[j:j+frag])
				tr.ApplyAll(xt, x)
				check(fmt.Sprintf("%s fragments %d-%d", p.name, i, j), xt, y, (d0+1.5)*(d0+1.5))
				rounds++
			}
		}
		for k := 0; k < 3; k++ {
			tr := geom.Transform{R: geom.RotY(rng.Float64() * 6.3).Mul(geom.RotX(rng.Float64() * 6.3)),
				T: geom.V(rng.NormFloat64()*20, rng.NormFloat64()*20, rng.NormFloat64()*20)}
			tr.ApplyAll(xt, x)
			check(fmt.Sprintf("%s random motion %d", p.name, k), xt, y, d0*d0)
		}
	}
	t.Logf("%d fragment rounds, %d overlap rounds, %d random motions", rounds, len(pairs), 3*len(pairs))

	// Tie-breaking: chains on a unit grid score only 1 and 0.5 at d02 = 1,
	// so DP cells are exact multiples of 0.5 and the traceback meets
	// diagonal, up and left ties; moved 1e200 away, every term is +0 and
	// every cell ties at +0. Two points 1e200 apart, alternating out of
	// phase in the two chains, score 1 off the diagonal and +0 on it, so
	// up and left tie above a smaller diagonal candidate.
	p, q := geom.V(0, 0, 0), geom.V(1e200, 0, 0)
	for _, n := range []int{2, 3, 12} {
		x, y := make([]geom.Vec3, n), make([]geom.Vec3, n)
		for i := range x {
			x[i], y[i] = p, q
			if i%2 == 1 {
				x[i], y[i] = q, p
			}
		}
		check(fmt.Sprintf("crossed %d", n), x, y, 1)
	}
	for _, d := range []struct{ len1, len2 int }{{1, 1}, {2, 5}, {17, 23}, {40, 31}} {
		x, y := make([]geom.Vec3, d.len1), make([]geom.Vec3, d.len2)
		for i := range x {
			x[i] = geom.V(float64(i%2), 0, 0)
		}
		for j := range y {
			y[j] = geom.V(float64(j/2%2), 0, 0)
		}
		check(fmt.Sprintf("grid %dx%d", d.len1, d.len2), x, y, 1)
		far := geom.Transform{R: geom.Identity(), T: geom.V(1e200, 0, 0)}
		xt := make([]geom.Vec3, len(x))
		far.ApplyAll(xt, x)
		check(fmt.Sprintf("grid %dx%d moved 1e200", d.len1, d.len2), xt, y, 1)
	}
}

// gapFreeCell is DP cell (i, j) of the table a's last AlignGapFree
// against n residues left in its buffer.
func gapFreeCell(a *Aligner, i, j, n int) float64 {
	return a.val[geom.QuadCell(i, j, n)]
}

// TestAlignGapFreeStaleWorkspace requires AlignGapFree to read only
// cells its own call wrote: on a buffer full of NaN, and on one holding a
// larger earlier round's table, the alignment and every DP cell equal a
// fresh Aligner's.
func TestAlignGapFreeStaleWorkspace(t *testing.T) {
	ck, rs := synth.CK34(), synth.RS119()
	big, bigY := rs.Structures[70].CAs(), rs.Structures[73].CAs()
	for _, p := range [][2]int{{0, 1}, {3, 15}, {33, 20}, {7, 8}} {
		x, y := ck.Structures[p[0]].CAs(), ck.Structures[p[1]].CAs()
		xt, yq := overlapRound(x, y), quadMirror(y)
		d0 := searchD0(min(len(x), len(y)))
		want := make([]int, len(y))
		fresh := NewAligner()
		fresh.AlignGapFree(xt, yq, d0*d0, want, nil)

		nan, reused := NewAligner(), NewAligner()
		nan.val = make([]float64, 4*len(big)*len(bigY))
		for c := range nan.val {
			nan.val[c] = math.NaN()
		}
		reused.AlignGapFree(overlapRound(big, bigY), quadMirror(bigY), 9, make([]int, len(bigY)), nil)
		for name, a := range map[string]*Aligner{"NaN buffer": nan, "larger earlier table": reused} {
			got := make([]int, len(y))
			a.AlignGapFree(xt, yq, d0*d0, got, nil)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("CK34 %d-%d, %s: invmap %v, fresh Aligner %v", p[0], p[1], name, got, want)
			}
			for i := range len(x) + 1 {
				for j := range len(y) + 1 {
					if g, w := gapFreeCell(a, i, j, len(y)), gapFreeCell(fresh, i, j, len(y)); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("CK34 %d-%d, %s: DP cell (%d, %d) = %x, fresh Aligner %x", p[0], p[1], name, i, j, g, w)
					}
				}
			}
		}
	}
}

// FuzzAlign feeds arbitrary score matrices and gap penalties through the
// global DP and asserts the structural invariant every caller relies on:
// the resulting invmap is a valid monotonic alignment.
func FuzzAlign(f *testing.F) {
	f.Add(int64(1), 8, 6, -0.6)
	f.Add(int64(2), 1, 1, 0.0)
	f.Add(int64(3), 20, 3, -3.0)
	f.Add(int64(4), 5, 40, 0.5) // positive "penalty" must still align validly
	f.Fuzz(func(t *testing.T, seed int64, len1, len2 int, gapOpen float64) {
		if len1 < 0 || len2 < 0 || len1 > 80 || len2 > 80 {
			t.Skip()
		}
		if gapOpen != gapOpen || gapOpen < -1e6 || gapOpen > 1e6 {
			t.Skip() // NaN/extreme penalties are out of contract
		}
		rng := rand.New(rand.NewSource(seed))
		mat := make([]float64, len1*len2)
		for i := range mat {
			mat[i] = rng.NormFloat64() * 3
		}
		a := NewAligner()
		invmap := make([]int, len2)
		a.AlignMatrix(len1, len2, mat, gapOpen, invmap, nil)
		if !IsMonotonic(invmap, len1) {
			t.Fatalf("AlignMatrix(%dx%d, gap %g) produced a non-monotonic invmap: %v",
				len1, len2, gapOpen, invmap)
		}
		inv2 := make([]int, len2)
		a.Align(len1, len2, func(i, j int) float64 { return mat[i*len2+j] }, gapOpen, inv2, nil)
		for j := range invmap {
			if invmap[j] != inv2[j] {
				t.Fatalf("Align and AlignMatrix disagree at j=%d: %d vs %d", j, inv2[j], invmap[j])
			}
		}
	})
}
