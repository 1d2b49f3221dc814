package tmalign

import (
	"rckalign/internal/geom"
	"rckalign/internal/ss"
)

// scoreDiagonals records in the Diagonals memo the fast scores of up to
// two gapless offsets not scored yet, in flight together, and the ops
// each charges.
func (c *ctx) scoreDiagonals(ks ...int) {
	var ls [2]fastLane
	for i, k := range ks {
		lo, hi := max(0, -k), min(c.ylen, c.xlen-k)
		ls[i] = c.lane(i, c.x[lo+k:hi+k], c.y[lo:hi], c.a.soa.Slice(lo+k, hi+k), c.b.soa.Slice(lo, hi), &c.w.Diagonals[k+c.ylen].Ops)
	}
	c.fastScores(ls[:len(ks)])
	for i, k := range ks {
		c.w.Diagonals[k+c.ylen].Known, c.w.Diagonals[k+c.ylen].Score = true, ls[i].score
	}
}

// rankDiagonals ranks by fast score the count gapless offsets first,
// first+step, ... whose overlap holds at least minOverlap pairs, and
// writes the full-overlap alignment of the first best into dst,
// reporting whether any offset scored above -1. get_initial and
// get_initial_fgt rank the same diagonals, so each offset is scored once
// per comparison, two at a time, and every ranking charges the recorded
// ops; the ranking reads the scores in order, so the first of equal
// scores wins.
func (c *ctx) rankDiagonals(dst []int, first, step, count, minOverlap int) bool {
	var pend [2]int
	np := 0
	for i, k := 0, first; i < count; i, k = i+1, k+step {
		if c.overlap(k) >= minOverlap && !c.w.Diagonals[k+c.ylen].Known {
			if pend[np], np = k, np+1; np == 2 {
				c.scoreDiagonals(pend[:]...)
				np = 0
			}
		}
	}
	c.scoreDiagonals(pend[:np]...)
	bestScore, best := -1.0, c.xlen // an offset past every residue: no pair
	for i, k := 0, first; i < count; i, k = i+1, k+step {
		if c.overlap(k) >= minOverlap {
			d := &c.w.Diagonals[k+c.ylen]
			if c.ops.Add(d.Ops); d.Score > bestScore {
				bestScore, best = d.Score, k
			}
		}
	}
	diagonal(dst, best, c.xlen)
	return best != c.xlen
}

// overlap is the number of pairs in the gapless alignment i = j + k.
func (c *ctx) overlap(k int) int { return min(c.ylen, c.xlen-k) - max(0, -k) }

// diagonal writes the gapless alignment i = j + k of a chain of xlen
// residues into invmap.
func diagonal(invmap []int, k, xlen int) {
	for j := range invmap {
		if i := j + k; i >= 0 && i < xlen {
			invmap[j] = i
		} else {
			invmap[j] = -1
		}
	}
}

// initialGapless is TM-align's get_initial: try every diagonal (ungapped)
// offset of the two chains, rank with the fast score, and write the best
// into dst (all -1 when no offset qualifies).
func (c *ctx) initialGapless(dst []int) {
	minAli := max(min(c.xlen, c.ylen)/2, 5)
	c.rankDiagonals(dst, minAli-c.ylen, 1, c.xlen+c.ylen-2*minAli+1, minAli)
}

// initialSS is get_initial_ss: Needleman-Wunsch over the secondary
// structure strings (match=1, mismatch=0, gap open -1). The result is
// written into invmap.
func (c *ctx) initialSS(invmap []int) {
	c.nw.AlignSS(c.a.Features.Sec, c.b.Features.Sec, c.scoreMat, invmap, &c.ops)
}

// initialLocal is get_initial5: superpose pairs of short fragments, score
// the whole chains under each fragment rotation, run gap-free-opening
// NWDP on that score matrix (a fused max-plus round, alignRound), and keep
// the alignment with the best fast score. Returns false when the chains
// are too short.
func (c *ctx) initialLocal(invmap []int) bool {
	frag := min(20, min(c.xlen, c.ylen)/2)
	if frag < 5 {
		return false
	}
	d01 := c.sp.D0 + 1.5
	d012 := d01 * d01

	xt := c.xt[:c.xlen]
	bestScore := -1.0 // every fast score is >= 0
	// Non-overlapping fragment starts.
	for i := 0; i+frag <= c.xlen; i += frag {
		for j := 0; j+frag <= c.ylen; j += frag {
			tr, _ := geom.Superpose(c.x[i:i+frag], c.y[j:j+frag])
			c.ops.AddKabsch(frag)
			tr.ApplyAll(xt, c.x)
			c.ops.AddRotate(c.xlen)
			c.alignRound(xt, d012, 0, c.invTmp)
			n := alignedPairs(c.x, c.y, c.invTmp, c.xtm, c.ytm)
			xc, yc := geom.ColsOf(c.w.PairCols, n, c.xtm[:n]), geom.ColsOf(c.w.PairCols[3*n:], n, c.ytm[:n])
			ls := [1]fastLane{c.lane(0, c.xtm[:n], c.ytm[:n], xc, yc, &c.ops)}
			if c.fastScores(ls[:]); ls[0].score > bestScore {
				bestScore = ls[0].score
				copy(invmap, c.invTmp)
			}
		}
	}
	return bestScore >= 0
}

// initialSSPlus is get_initial_ssplus: NWDP over a score matrix mixing
// secondary structure identity (0.5 bonus) with the distance score under
// the best rotation found so far.
func (c *ctx) initialSSPlus(invmap []int, tr geom.Transform) {
	d02 := c.sp.D0 * c.sp.D0
	xt := c.xt[:c.xlen]
	tr.ApplyAll(xt, c.x)
	c.ops.AddRotate(c.xlen)
	c.fillDistMatrix(xt, d02, true)
	c.ops.AddScore(c.xlen * c.ylen)
	c.nw.AlignMatrix(c.xlen, c.ylen, c.scoreMat, -1, invmap, &c.ops)
}

// initialFragment is a compact form of get_initial_fgt (fragment gapless
// threading): thread the longest secondary-structure element of chain 1
// gaplessly across chain 2, extend each candidate offset to a full
// diagonal alignment, and keep the offset with the best fast score.
// Returns false if no usable fragment exists.
func (c *ctx) initialFragment(invmap []int) bool {
	fs, fe := longestSSElement(c.a.Features.Sec)
	if fe-fs < 4 { // fall back to the central third of the chain
		fs, fe = c.xlen/3, c.xlen/3+c.xlen/3
	}
	flen := fe - fs
	if flen < 4 {
		return false
	}
	// Slide the fragment over chain 2; offset k aligns x[fs+t] to
	// y[k+t]. Extend the diagonal i = j + fs - k to the full overlap.
	return c.rankDiagonals(invmap, fs, -1, c.ylen-flen+1, 5)
}

// longestSSElement returns the [start, end) span of the longest run of
// identical non-coil secondary structure in sec.
func longestSSElement(sec []ss.Type) (start, end int) {
	bestLen := 0
	i := 0
	for i < len(sec) {
		j := i
		for j < len(sec) && sec[j] == sec[i] {
			j++
		}
		if sec[i] != ss.Coil && j-i > bestLen {
			bestLen = j - i
			start, end = i, j
		}
		i = j
	}
	return start, end
}
