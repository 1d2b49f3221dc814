package seqalign

import (
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
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
// pure re-expression of Align: identical alignments and identical DP
// charges on random score matrices, with and without a gap penalty,
// including degenerate empty dimensions.
func TestAlignMatrixMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := []struct{ len1, len2 int }{
		{1, 1}, {1, 7}, {7, 1}, {13, 17}, {40, 40}, {64, 31},
		{0, 5}, {5, 0}, {0, 0},
	}
	for _, gapOpen := range []float64{0, -0.6, -2.5} {
		for _, d := range dims {
			mat := make([]float64, d.len1*d.len2)
			for i := range mat {
				mat[i] = rng.NormFloat64()
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
