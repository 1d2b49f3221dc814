package tmalign

import (
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/seqalign"
	"rckalign/internal/ss"
)

// scoreDiagonal leaves the full-overlap gapless alignment i = j + k in
// c.invTmp and returns its fast score. get_initial and get_initial_fgt
// rank the same diagonals, so each offset is scored once per comparison;
// a repeat charges the recorded ops.
func (c *ctx) scoreDiagonal(k int) float64 {
	for j := range c.invTmp {
		if i := j + k; i >= 0 && i < c.xlen {
			c.invTmp[j] = i
		} else {
			c.invTmp[j] = -1
		}
	}
	d := &c.w.Diagonals[k+c.ylen]
	if d.Known {
		c.ops.Add(d.Ops)
		return d.Score
	}
	before := c.ops
	s := c.scoreFast(c.invTmp)
	*d = kernel.DiagonalScore{Known: true, Score: s, Ops: c.ops.Sub(before)}
	return s
}

// initialGapless is TM-align's get_initial: try every diagonal (ungapped)
// offset of the two chains, rank with the fast score, and write the best
// into dst (all -1 when no offset qualifies).
func (c *ctx) initialGapless(dst []int) {
	minAli := max(min(c.xlen, c.ylen)/2, 5)
	for j := range dst {
		dst[j] = -1
	}
	bestScore := -1.0
	seqalign.GaplessThreading(c.xlen, c.ylen, minAli, func(k, lo, hi int) {
		if s := c.scoreDiagonal(k); s > bestScore {
			bestScore = s
			copy(dst, c.invTmp)
		}
	})
}

// initialSS is get_initial_ss: Needleman-Wunsch over the secondary
// structure strings (match=1, mismatch=0, gap open -1). The result is
// written into invmap.
func (c *ctx) initialSS(invmap []int) {
	c.nw.AlignSS(c.sec1, c.sec2, invmap, &c.ops)
}

// initialLocal is get_initial5: superpose pairs of short fragments, score
// the whole chains under each fragment rotation, run gap-free-opening
// NWDP on that score matrix (a fused max-plus round, alignRound), and keep
// the alignment with the best fast score. Returns false when the chains
// are too short.
func (c *ctx) initialLocal(invmap []int) bool {
	minLen := c.xlen
	if c.ylen < minLen {
		minLen = c.ylen
	}
	frag := 20
	if minLen <= 2*frag {
		frag = minLen / 2
	}
	if frag < 5 {
		return false
	}
	jump := frag // non-overlapping fragment starts
	d01 := c.sp.D0 + 1.5
	d012 := d01 * d01

	xt := c.xt[:c.xlen]
	bestScore := -1.0
	found := false

	for i := 0; i+frag <= c.xlen; i += jump {
		for j := 0; j+frag <= c.ylen; j += jump {
			tr, _ := geom.Superpose(c.x[i:i+frag], c.y[j:j+frag])
			c.ops.AddKabsch(frag)
			tr.ApplyAll(xt, c.x)
			c.ops.AddRotate(c.xlen)
			c.alignRound(xt, d012, 0, c.invTmp)
			if s := c.scoreFast(c.invTmp); s > bestScore {
				bestScore = s
				copy(invmap, c.invTmp)
				found = true
			}
		}
	}
	return found
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
	fs, fe := longestSSElement(c.sec1)
	flen := fe - fs
	if flen < 4 {
		// Fall back to the central third of the chain.
		fs = c.xlen / 3
		fe = fs + c.xlen/3
		flen = fe - fs
		if flen < 4 {
			return false
		}
	}
	bestScore := -1.0
	found := false
	// Slide the fragment over chain 2; offset k aligns x[fs+t] to
	// y[k+t]. Extend the diagonal i = j + fs - k to the full overlap.
	for k := 0; k+flen <= c.ylen; k++ {
		shift := fs - k
		if min(c.ylen, c.xlen-shift)-max(0, -shift) < 5 {
			continue
		}
		if s := c.scoreDiagonal(shift); s > bestScore {
			bestScore = s
			copy(invmap, c.invTmp)
			found = true
		}
	}
	return found
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
