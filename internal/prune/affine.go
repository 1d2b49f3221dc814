package prune

import "math"

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
