package tmalign

import (
	"math"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/tmscore"
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

// A fastLane is one TM-align get_score_fast in flight, a cheap estimate
// of an alignment's TM-score that ranks candidate alignments (only
// comparable to other fast scores): its aligned pairs and scratch, the
// pairs p, q of its next fit, its score so far and the counter it charges.
type fastLane struct {
	xtm, ytm, xt, r1, r2, p, q []geom.Vec3
	dis2                       []float64
	score                      float64
	ops                        *costmodel.Counter
}

// lane returns a fast score of the pairs xtm, ytm on scratch lane k.
func (c *ctx) lane(k int, xtm, ytm []geom.Vec3, ops *costmodel.Counter) fastLane {
	w, n, o := c.w, len(xtm), k*max(c.xlen, c.ylen)
	return fastLane{xtm: xtm, ytm: ytm, xt: w.PairT[o : o+n], r1: w.R1[o : o+n], r2: w.R2[o : o+n], dis2: w.Dis2[o : o+n], ops: ops}
}

// fastScores runs get_score_fast on one or two lanes in step. Its rounds
// fit all pairs; re-fit on the pairs within d0_search², relaxed until
// three pass; and if that left some out, re-fit within d0_search² + 1.
// Each round superposes the live lanes' fits together (geom.Superpose2)
// and scores all of a lane's pairs under its fit, a later round keeping
// the higher score. Every lane's score and ops are those of running it
// alone; a lane with fewer than three pairs scores 0 and charges nothing.
func (c *ctx) fastScores(ls []fastLane) {
	d02, d002 := c.sp.D0*c.sp.D0, c.sp.D0Search*c.sp.D0Search
	for i := range ls {
		ls[i].score, ls[i].p, ls[i].q = 0, ls[i].xtm, ls[i].ytm
	}
	for round, cut2 := range [3]float64{0, d002, d002 + 1} {
		var live [2]*fastLane
		m := 0
		for i := range ls {
			if l := &ls[i]; len(l.p) >= 3 && (round == 0 || l.gather(cut2)) {
				live[m], m = l, m+1
			}
		}
		var tr [2]geom.Transform
		switch m {
		case 1:
			tr[0], _ = geom.Superpose(live[0].p, live[0].q)
		case 2:
			tr[0], _, tr[1], _ = geom.Superpose2(live[0].p, live[0].q, live[1].p, live[1].q)
		}
		for i, l := range live[:m] {
			n := len(l.xtm)
			l.ops.AddKabsch(len(l.p))
			l.ops.AddScore(n)
			l.ops.AddRotate(n)
			tr[i].ApplyAll(l.xt, l.xtm)
			if s := geom.ScoreSum(l.dis2, l.xt, l.ytm, d02, 0, false); round == 0 || s > l.score {
				l.score = s
			}
		}
	}
}

// gather makes the pairs within cut2, relaxed until three pass, the
// lane's next fit, and reports whether there is one: a gather that keeps
// every pair or fewer than three ends the lane.
func (l *fastLane) gather(cut2 float64) bool {
	j, _ := tmscore.RelaxSum(l.dis2, cut2, func(cutoff float64) int {
		j := 0
		for k, dk := range l.dis2 {
			if dk <= cutoff {
				l.r1[j], l.r2[j] = l.xtm[k], l.ytm[k]
				j++
			}
		}
		return j
	})
	l.p, l.q = l.r1[:j], l.r2[:j]
	if j == len(l.xtm) {
		l.p = nil
	}
	return len(l.p) >= 3
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
				c.alignRound(xt, d02, gapOpen, c.invTmp)
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
			if iter > 0 && math.Abs(tm-tmOld) < 1e-6 {
				break
			}
			tmOld = tm
		}
	}
	return bestTM, bestTr, best
}

// alignRound is one NWDP round with gap opening gapOpen over the TM-score
// matrix of the rotated chain xt against the fixed chain, written into
// invmap. A gap-open-0 round whose terms are all numbers is one fused
// max-plus pass that never writes the matrix (seqalign.AlignGapFree); a
// gapped round, or one with a non-finite coordinate on either side, fills
// c.scoreMat and runs AlignMatrix. Both bill the same ops.
func (c *ctx) alignRound(xt []geom.Vec3, d02, gapOpen float64, invmap []int) {
	c.ops.AddScore(c.xlen * c.ylen)
	if gapOpen == 0 && c.b.finite && finite(xt) {
		c.nw.AlignGapFree(xt, c.b.quad, d02, invmap, &c.ops)
		return
	}
	c.fillDistMatrix(xt, d02, false)
	c.nw.AlignMatrix(c.xlen, c.ylen, c.scoreMat, gapOpen, invmap, &c.ops)
}

// finite reports whether every coordinate of v is finite. Finite
// coordinates on both sides and a positive finite d02 (SearchParams' d0
// is at least 0.968) put every TM term in [+0, 1].
func finite(v []geom.Vec3) bool {
	for _, p := range v {
		if !(math.Abs(p[0]) <= math.MaxFloat64 && math.Abs(p[1]) <= math.MaxFloat64 && math.Abs(p[2]) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// fillDistMatrix fills c.scoreMat with d2/(d2+d^2) for every (i, j)
// pair of the rotated chain xt against the fixed chain, one
// geom.ScoreRow per residue of xt over the fixed chain's SoA mirror.
// With ssBonus, pairs with matching secondary structure score +0.5
// (get_initial_ssplus's mixed matrix).
func (c *ctx) fillDistMatrix(xt []geom.Vec3, d2 float64, ssBonus bool) {
	ylen := c.ylen
	for i, p := range xt[:c.xlen] {
		row := c.scoreMat[i*ylen : i*ylen+ylen]
		geom.ScoreRow(row, c.b.x, c.b.y, c.b.z, p, d2)
		if ssBonus {
			s1 := c.a.Features.Sec[i]
			for j, s2 := range c.b.Features.Sec {
				if s1 == s2 {
					row[j] += 0.5
				}
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
