package prune

import (
	"math"
	"slices"
)

// affineScore returns the optimal global affine-gap alignment score
// (Gotoh 1982) of s1 against s2 in tenths: an identical residue scores
// seqMatch, a mismatch 0, a gap of k residues gapOpen + k*gapExtend. A
// gap opens only out of a match state, which loses nothing here because
// two adjacent opposite gaps always cost more than the mismatches they
// would replace.
//
// Only the score is computed: three rolling rows of len(s2)+1 cells
// carved from rows, which must hold 3*(len(s2)+1) values and whose
// contents on entry do not matter. m and x are the previous row's
// match and gap-in-s2 states, best the maximum over its three states;
// the gap-in-s1 state only ever looks left, so it lives in a register.
//
// Every reachable cell lies in [-(2*|gapOpen| + len(s1) + len(s2)),
// seqMatch*min(len(s1), len(s2))]. An unreachable state starts at negInf
// = MinInt32/2 and is lowered by at most |gapOpen+gapExtend| before a
// reachable predecessor overtakes it, so nothing wraps and no score is
// mistaken for negInf until seqMatch*L reaches 2^30: int32 tenths
// overflow only past ~10^8 residues, five orders of magnitude beyond any
// protein and far past where the quadratic DP itself is feasible.
func affineScore(s1, s2 string, rows []int32) int32 {
	const negInf = math.MinInt32 / 2
	const open = gapOpen + gapExtend
	cols := len(s2) + 1
	m, x, best := rows[:cols], rows[cols:2*cols], rows[2*cols:3*cols]
	// Column j+1 of each row, the same length as s2 so the inner loop
	// indexes all four without bounds checks.
	mj, xj, bj := m[1:][:len(s2)], x[1:][:len(s2)], best[1:][:len(s2)]

	// Row 0: only leading gaps in s1 (state y) are reachable past (0,0).
	m[0], x[0], best[0] = 0, negInf, 0
	for j := 0; j < len(s2); j++ {
		mj[j], xj[j] = negInf, negInf
		bj[j] = gapOpen + int32(j+1)*gapExtend
	}
	for i := 0; i < len(s1); i++ { // bytes, not runes
		c := s1[i]
		diag := best[0]
		// Column 0: only leading gaps in s2 (state x) are reachable.
		m[0] = negInf
		x[0] = gapOpen + int32(i+1)*gapExtend
		best[0] = x[0]
		leftM, leftY := int32(negInf), int32(negInf)
		for j := 0; j < len(s2); j++ {
			nm := diag
			if c == s2[j] {
				nm += seqMatch
			}
			nx := max(mj[j]+open, xj[j]+gapExtend)
			ny := max(leftM+open, leftY+gapExtend)
			diag = bj[j]
			mj[j], xj[j], bj[j] = nm, nx, max(nm, nx, ny)
			leftM, leftY = nm, ny
		}
	}
	return best[len(s2)]
}

// lanes is how many pairs one affineLanes call aligns, and laneMaxLen the
// longest chain it takes: every reachable cell then lies in
// [-(40 + 2*laneMaxLen), seqMatch*laneMaxLen], inside int16 and above its
// -32768 sentinel.
const (
	lanes      = 8
	laneMaxLen = math.MaxInt16 / seqMatch
)

// affine is affineScore on the filter's scratch rows.
func (f *Filter) affine(s1, s2 string) int32 {
	if n := 3 * (len(s2) + 1); cap(f.rows) < n {
		f.rows = make([]int32, n)
	}
	return affineScore(s1, s2, f.rows)
}

// groupScores sets score[k] = affineScore(s1, s2[k]) for every k of s2,
// which holds at most lanes targets: one affineLanes call with the
// targets interleaved column by column and padded to the longest, whose
// padding cells no lane's own cells depend on. A chain past laneMaxLen,
// or a GOARCH without the kernel, takes affineScore pair by pair.
func (f *Filter) groupScores(s1 string, s2 []string, score []int32) {
	n := 0
	for _, s := range s2 {
		n = max(n, len(s))
	}
	if !haveLanes || max(len(s1), n) > laneMaxLen {
		for k, s := range s2 {
			score[k] = f.affine(s1, s)
		}
		return
	}
	f.lt, f.lr = slices.Grow(f.lt[:0], lanes*n)[:lanes*n], slices.Grow(f.lr[:0], 3*lanes*n)[:3*lanes*n]
	for c := range f.lt {
		f.lt[c] = -1 // matches no residue
		if j, k := c/lanes, c%lanes; k < len(s2) && j < len(s2[k]) {
			f.lt[c] = int16(s2[k][j])
		}
	}
	affineLanes(s1, f.lt, f.lr)
	for k, s := range s2 {
		if len(s) == 0 {
			score[k] = f.affine(s1, s) // column 0, which the kernel keeps in a register
		} else {
			score[k] = int32(f.lr[3*lanes*(len(s)-1)+2*lanes+k])
		}
	}
}
