package tmalign

import (
	"math"

	"rckalign/internal/geom"
	"rckalign/internal/kernel"
)

// detailedSearch gathers the aligned pairs of invmap and runs the
// TM-score rotation search over them (TM-align's detailed_search with the
// configured simplify step). Returns the TM-score (search normalization)
// and the rotation achieving it.
//
// The result is a pure function of the alignment, and the two gap
// settings of dpIter, converged DP iterations and different initials keep
// producing alignments already searched, so each distinct alignment is
// searched once per comparison; a repeat returns the recorded result and
// charges the recorded ops.
func (c *ctx) detailedSearch(invmap []int) (float64, geom.Transform) {
	key := c.w.AlignKey[:len(invmap)]
	for j, i := range invmap {
		key[j] = int32(i)
	}
	_, memo, hit := c.w.Searched.Slot(key)
	if hit {
		c.ops.Add(memo.Ops)
		return memo.TM, memo.Tr
	}
	before := c.ops
	tm, tr := 0.0, geom.IdentityTransform()
	if n := alignedPairs(c.x, c.y, invmap, c.xtm, c.ytm); n > 0 {
		tm, tr = c.sp.SearchWS(c.w, c.xtm[:n], c.ytm[:n], c.opt.SimplifyStep, &c.ops)
	}
	if memo != nil {
		*memo = kernel.SearchedAlignment{TM: tm, Tr: tr, Ops: c.ops.Sub(before)}
	}
	return tm, tr
}

// scoreFast is TM-align's get_score_fast: a cheap three-round estimate of
// an alignment's TM-score used to rank candidate alignments (the returned
// value is un-normalised; only comparisons against other scoreFast values
// are meaningful).
func (c *ctx) scoreFast(invmap []int) float64 {
	n := alignedPairs(c.x, c.y, invmap, c.xtm, c.ytm)
	if n < 3 {
		return 0
	}
	xtm := c.xtm[:n]
	ytm := c.ytm[:n]

	d02 := c.sp.D0 * c.sp.D0
	d002 := c.sp.D0Search * c.sp.D0Search
	dis2 := c.dis2[:n]

	// scorePass rotates xtm under tr and accumulates the TM sum, caching
	// squared distances; the transform is hoisted into scalars in
	// Apply/Dist2 evaluation order (bit-identical to the method chain).
	scorePass := func(tr geom.Transform) float64 {
		r00, r01, r02 := tr.R[0][0], tr.R[0][1], tr.R[0][2]
		r10, r11, r12 := tr.R[1][0], tr.R[1][1], tr.R[1][2]
		r20, r21, r22 := tr.R[2][0], tr.R[2][1], tr.R[2][2]
		tx, ty, tz := tr.T[0], tr.T[1], tr.T[2]
		s := 0.0
		for k := 0; k < n; k++ {
			a, b := &xtm[k], &ytm[k]
			px, py, pz := a[0], a[1], a[2]
			dx := r00*px + r01*py + r02*pz + tx - b[0]
			dy := r10*px + r11*py + r12*pz + ty - b[1]
			dz := r20*px + r21*py + r22*pz + tz - b[2]
			di := dx*dx + dy*dy + dz*dz
			dis2[k] = di
			s += 1 / (1 + di/d02)
		}
		c.ops.AddScore(n)
		c.ops.AddRotate(n)
		return s
	}

	tr, _ := geom.Superpose(xtm, ytm)
	c.ops.AddKabsch(n)
	score := scorePass(tr)

	// Round 2: re-fit on pairs within d0Search.
	refit := func(cut2 float64) (float64, bool) {
		j := 0
		for cutoff := cut2; ; cutoff += 0.5 {
			j = 0
			for k := 0; k < n; k++ {
				if dis2[k] <= cutoff {
					c.r1[j] = xtm[k]
					c.r2[j] = ytm[k]
					j++
				}
			}
			if j >= 3 || n <= 3 {
				break
			}
		}
		if j == n {
			return score, false // nothing filtered; no improvement possible
		}
		if j < 3 {
			return score, false
		}
		tr, _ := geom.Superpose(c.r1[:j], c.r2[:j])
		c.ops.AddKabsch(j)
		return scorePass(tr), true
	}

	if s2, improvedPossible := refit(d002); improvedPossible {
		if s2 > score {
			score = s2
		}
		if s3, _ := refit(d002 + 1); s3 > score {
			score = s3
		}
	}
	return score
}

// dpIter is TM-align's DP_iter: starting from an alignment and its
// rotation, alternately (a) build a score matrix from the rotated
// inter-chain distances and run NWDP, and (b) re-search the rotation for
// the new alignment, keeping the best TM-score seen. Both gap-opening
// settings (-0.6 and 0) are explored.
//
// Step (a) is a pure function of the rotation's bits and the gap
// setting, and rounds converge onto rotations already seen, so each
// distinct (rotation, gap) is aligned once per comparison; a repeat
// copies the recorded alignment and charges the recorded ops.
func (c *ctx) dpIter(invmap0 []int, tr geom.Transform, maxIter int) (float64, geom.Transform, []int) {
	bestTM := -1.0
	bestTr := tr
	best := c.w.InvDP[:c.ylen]
	copy(best, invmap0)

	d02 := c.sp.D0 * c.sp.D0
	xt := c.xt[:c.xlen]
	var key [25]int32 // the rotation's 12 float64 bit patterns, then the gap setting

	for g, gapOpen := range [2]float64{-0.6, 0} {
		cur := tr
		tmOld := 0.0
		for iter := 0; iter < maxIter; iter++ {
			for k, v := range [12]float64{
				cur.R[0][0], cur.R[0][1], cur.R[0][2], cur.R[1][0], cur.R[1][1], cur.R[1][2],
				cur.R[2][0], cur.R[2][1], cur.R[2][2], cur.T[0], cur.T[1], cur.T[2],
			} {
				b := math.Float64bits(v)
				key[2*k], key[2*k+1] = int32(b), int32(b>>32)
			}
			key[24] = int32(g)
			id, round, hit := c.w.DPRounds.Slot(key[:])
			if hit {
				copy(c.invTmp, c.w.DPInvmaps[id*c.ylen:])
				c.ops.Add(*round)
			} else {
				// Score matrix from current rotation.
				before := c.ops
				cur.ApplyAll(xt, c.x)
				c.ops.AddRotate(c.xlen)
				c.fillDistMatrix(xt, d02, false)
				c.ops.AddScore(c.xlen * c.ylen)
				c.nw.AlignMatrix(c.xlen, c.ylen, c.scoreMat, gapOpen, c.invTmp, &c.ops)
				if round != nil {
					*round = c.ops.Sub(before)
					c.w.DPInvmaps = append(c.w.DPInvmaps, c.invTmp...)
				}
			}

			tm, trNew := c.detailedSearch(c.invTmp)
			if tm > bestTM {
				bestTM = tm
				bestTr = trNew
				copy(best, c.invTmp)
			}
			cur = trNew
			if iter > 0 && abs(tm-tmOld) < 1e-6 {
				break
			}
			tmOld = tm
		}
	}
	return bestTM, bestTr, best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// fillDistMatrix fills c.scoreMat with 1/(1+d^2/d2) for every (i, j)
// pair of the rotated chain xt against the fixed chain, reading the
// fixed chain through its SoA mirror (one contiguous stream per axis).
// With ssBonus, pairs with matching secondary structure score +0.5
// (get_initial_ssplus's mixed matrix). The distance arithmetic follows
// Vec3.Dist2's evaluation order, so the fill is bit-identical to the
// naive xt[i].Dist2(y[j]) loop.
func (c *ctx) fillDistMatrix(xt []geom.Vec3, d2 float64, ssBonus bool) {
	ylen := c.ylen
	yx := c.w.YX[:ylen]
	yy := c.w.YY[:ylen]
	yz := c.w.YZ[:ylen]
	for i := 0; i < c.xlen; i++ {
		p := &xt[i]
		px, py, pz := p[0], p[1], p[2]
		row := c.scoreMat[i*ylen : i*ylen+ylen]
		if ssBonus {
			s1 := c.sec1[i]
			sec2 := c.sec2
			for j := range row {
				dx, dy, dz := px-yx[j], py-yy[j], pz-yz[j]
				di := dx*dx + dy*dy + dz*dz
				s := 1 / (1 + di/d2)
				if s1 == sec2[j] {
					s += 0.5
				}
				row[j] = s
			}
		} else {
			for j := range row {
				dx, dy, dz := px-yx[j], py-yy[j], pz-yz[j]
				di := dx*dx + dy*dy + dz*dz
				row[j] = 1 / (1 + di/d2)
			}
		}
	}
}

// alignedPairs copies the aligned coordinate pairs of invmap into dstX,
// dstY and returns the pair count.
func alignedPairs(x, y []geom.Vec3, invmap []int, dstX, dstY []geom.Vec3) int {
	n := 0
	for j, i := range invmap {
		if i >= 0 {
			dstX[n] = x[i]
			dstY[n] = y[j]
			n++
		}
	}
	return n
}
