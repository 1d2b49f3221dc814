// Package tmscore implements the TM-score machinery of TM-align (Zhang &
// Skolnick 2005): the length-dependent d0 normalization, the score_fun8
// scoring kernel and the TMscore8_search iterative fragment-superposition
// search that finds the rotation maximising the TM-score of a fixed
// alignment.
package tmscore

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
)

// ErrAlignedLength reports aligned coordinate sets of different
// lengths — a kernel precondition violation. Scoring panics with an
// error wrapping this sentinel so a recovery boundary
// (tmalign.TryCompare) can surface it as a caller-visible error.
var ErrAlignedLength = errors.New("tmscore: aligned coordinate sets differ in length")

// Params bundles the scoring parameters for one comparison, mirroring
// TM-align's parameter_set4search / parameter_set4final.
type Params struct {
	// LNorm is the normalization length (float: the "average length"
	// option normalises by a non-integer).
	LNorm float64
	// D0 is the TM-score distance scale.
	D0 float64
	// D0Search is D0 clamped to [4.5, 8], used as the pair-inclusion
	// cutoff seed during iterative extension.
	D0Search float64
	// ScoreD8 is the long-distance cutoff: in search mode, pairs beyond
	// it contribute nothing to the score.
	ScoreD8 float64
}

// d0OfLength is the canonical TM-score d0 formula.
func d0OfLength(l float64) float64 {
	return 1.24*math.Cbrt(l-15) - 1.8
}

func clampSearch(d0 float64) float64 {
	if d0 > 8 {
		return 8
	}
	if d0 < 4.5 {
		return 4.5
	}
	return d0
}

// SearchParams returns the parameter set TM-align uses while searching
// for the optimal alignment of chains with lengths xlen and ylen
// (normalization by the shorter chain, inflated d0 for robustness,
// score_d8 long-distance cutoff).
func SearchParams(xlen, ylen int) Params {
	lnorm := float64(min(xlen, ylen))
	var d0 float64
	if lnorm <= 19 {
		d0 = 0.168
	} else {
		d0 = d0OfLength(lnorm)
	}
	d0 += 0.8 // D0_MIN = d0+0.8; d0 = D0_MIN ("best for search")
	return Params{
		LNorm:    lnorm,
		D0:       d0,
		D0Search: clampSearch(d0),
		ScoreD8:  1.5*math.Pow(lnorm, 0.3) + 3.5,
	}
}

// FinalParams returns the parameter set used to report the final TM-score
// normalised by length l (parameter_set4final). The d8 cutoff is disabled
// in final scoring.
func FinalParams(l float64) Params {
	var d0 float64
	if l <= 21 {
		d0 = 0.5
	} else {
		d0 = d0OfLength(l)
	}
	if d0 < 0.5 {
		d0 = 0.5
	}
	return Params{
		LNorm:    l,
		D0:       d0,
		D0Search: clampSearch(d0),
	}
}

// scoreFun8 is TM-align's score_fun8: given already-transformed aligned
// coordinates, it sums 1/(1+(d/d0)^2) (optionally only over pairs with
// d <= score_d8) and collects into the bitset set the indices with
// distance < d; if fewer than 3 pairs qualify the cutoff is relaxed by
// 0.5 A steps. It returns the TM-score (sum/LNorm), the number of
// collected pairs and the score evaluations to charge.
//
// The squared distances are computed once into dis2 by geom.ScoreSum
// (the score does not depend on the collection cutoff; the d8 cutoff is
// its mask) and the relaxation rounds re-scan the cached distances only.
// The op charge still mirrors the reference score_fun8, which rescans
// all n pairs (distances and scores) on every relaxation round — the
// simulated kernel cost is unchanged.
func (p Params) scoreFun8(xt, y []geom.Vec3, d float64, set []int32, dis2 []float64) (score float64, nCut, evals int) {
	n := len(xt)
	dis2 = dis2[:n]
	scoreSum := geom.ScoreSum(dis2, xt, y, p.D0*p.D0, p.ScoreD8*p.ScoreD8, p.ScoreD8 > 0)
	dTmp := d * d
	for inc := 0; ; inc++ {
		clear(set)
		nCut = 0
		for i, di := range dis2 {
			if di < dTmp {
				set[i>>5] |= 1 << uint(i&31)
				nCut++
			}
		}
		evals += n
		if nCut < 3 && n > 3 {
			dinc := d + float64(inc+1)*0.5
			dTmp = dinc * dinc
			continue
		}
		break
	}
	return scoreSum / p.LNorm, nCut, evals
}

// gatherSet copies the pairs whose indices are in the bitset set into
// r1, r2 and returns how many there are.
func gatherSet(set []int32, x, y, r1, r2 []geom.Vec3) int {
	ka := 0
	for wi, word := range set {
		for b := uint32(word); b != 0; b &= b - 1 {
			m := wi<<5 + bits.TrailingZeros32(b)
			r1[ka] = x[m]
			r2[ka] = y[m]
			ka++
		}
	}
	return ka
}

// searchIterations is TM-align's n_it: refinement steps per seed fragment.
const searchIterations = 20

// maxGraphWords bounds the key arena of one search's trajectory graph
// (a variable so the tests can exercise the flush at the bound).
var maxGraphWords = kernel.MemoWords

// SearchWS finds the rigid transform of x that maximises the TM-score of
// the fixed alignment (x[i] <-> y[i]): TM-align's TMscore8_search. Seed
// fragments of halving lengths slide along the alignment with stride
// simplifyStep (40 during alignment search, 1 for final scoring); each
// seed is superposed, scored, and iteratively extended over the pairs
// within distance cutoffs until convergence. It returns the best score
// and the transform achieving it. Scratch comes from the Search* buffer
// group of w; every other group is left untouched, so a caller may be
// mid-flight in the comparison layer.
//
// An extension step is a pure function of the aligned-index set it
// superposes: the same set always yields the same score, transform and
// successor set. Neighbouring seeds fall into the same basins, so every
// set is interned as a node of a per-call trajectory graph and
// superposed once; a seed that reaches a node already expanded walks the
// recorded chain, charging ops the reference algorithm would have spent
// (one iteration tick, one Kabsch solve, one rotation and the scoring
// rounds per node) without redoing them. That is exact: a revisited step
// would offer scoreMax the very (score, transform) it was already
// offered, and the comparison is a strict >. DESIGN.md §17.
func (p Params) SearchWS(w *kernel.Workspace, x, y []geom.Vec3, simplifyStep int, ops *costmodel.Counter) (float64, geom.Transform) {
	n := len(x)
	if n != len(y) {
		panic(fmt.Errorf("%w (Search: %d vs %d)", ErrAlignedLength, n, len(y)))
	}
	if n == 0 {
		return 0, geom.IdentityTransform()
	}
	if simplifyStep < 1 {
		simplifyStep = 1
	}

	// Fragment-length ladder: n, n/2, n/4, ... down to min(n, 4).
	const nInitMax = 6
	liniMin := min(n, 4)
	var ladder [nInitMax]int
	rungs := 0
	for ; rungs < nInitMax-1 && n>>uint(rungs) > liniMin; rungs++ {
		ladder[rungs] = n >> uint(rungs)
	}
	ladder[rungs] = liniMin

	scoreMax := -1.0
	bestT := geom.IdentityTransform()
	w.ReserveSearch(n)
	xt := w.SearchXt[:n]
	r1 := w.SearchR1[:n]
	r2 := w.SearchR2[:n]
	dis2 := w.SearchDis2[:n]
	set := w.SearchSet[:(n+31)/32]

	// A seed interns its first set and at most one more per iteration;
	// the graph is flushed between seeds when it could not hold them, so
	// interning never fails while node numbers are live.
	g := &w.SearchGraph
	seedWords := (searchIterations + 1) * len(set)
	limit := max(maxGraphWords, seedWords)
	g.Reset(limit)
	node := func(size int) int {
		id, v, hit := g.Slot(set)
		if !hit {
			*v = kernel.SearchNode{Next: -1, Size: int32(size)}
		}
		return id
	}
	// expand takes the extension step of a set for the first time:
	// superpose it, score with the looser cutoff, offer the result to the
	// incumbent, record what the step costs and where it leads.
	expand := func(cur int) {
		ka := gatherSet(g.Key(cur), x, y, r1, r2)
		tr, _ := geom.Superpose(r1[:ka], r2[:ka])
		tr.ApplyAll(xt, x)
		score, nCut, evals := p.scoreFun8(xt, y, p.D0Search+1, set, dis2)
		if score > scoreMax {
			scoreMax = score
			bestT = tr
		}
		next := node(nCut)
		g.Vals[cur].Next, g.Vals[cur].Evals = int32(next), int64(evals)
	}

	// Charged locally and added to ops on return, so ops may be nil.
	var c costmodel.Counter
	for _, lInit := range ladder[:rungs+1] {
		iLMax := n - lInit + 1
		for iL := 0; iL < iLMax; iL += simplifyStep {
			if g.Free() < seedWords {
				g.Reset(limit)
			}
			tr, _ := geom.Superpose(x[iL:iL+lInit], y[iL:iL+lInit])
			c.AddKabsch(lInit)
			tr.ApplyAll(xt, x)
			c.AddRotate(n)

			score, nCut, evals := p.scoreFun8(xt, y, p.D0Search-1, set, dis2)
			c.AddScore(evals)
			if score > scoreMax {
				scoreMax = score
				bestT = tr
			}
			extend(g, node(nCut), n, &c, expand)
		}
	}
	ops.Add(c)
	return scoreMax, bestT
}

// extend is the iterative extension of one seed: from node cur it takes
// up to searchIterations steps along the trajectory graph, one node per
// step, until a set reproduces itself or is empty. A node not superposed
// yet is expanded first; every step, computed now or by an earlier seed,
// charges c what the reference algorithm spends on it: one Kabsch solve
// over the set, one rotation of all n pairs and the scoring rounds.
func extend(g *kernel.Table[kernel.SearchNode], cur, n int, c *costmodel.Counter, expand func(cur int)) {
	for it := 0; it < searchIterations && g.Vals[cur].Size > 0; it++ {
		if g.Vals[cur].Next < 0 {
			expand(cur)
		}
		nd := g.Vals[cur]
		c.AddKabsch(int(nd.Size))
		c.AddRotate(n)
		c.AddScore(int(nd.Evals))
		if int(nd.Next) == cur {
			return // converged
		}
		cur = int(nd.Next)
	}
}

// ScoreWithTransform returns the TM-score of the fixed alignment under a
// given transform of x, without searching (pairs beyond ScoreD8 excluded
// when it is set).
func (p Params) ScoreWithTransform(x, y []geom.Vec3, tr geom.Transform, ops *costmodel.Counter) float64 {
	if len(x) != len(y) {
		panic(fmt.Errorf("%w (ScoreWithTransform: %d vs %d)", ErrAlignedLength, len(x), len(y)))
	}
	w := kernel.Get()
	defer kernel.Put(w)
	w.ReserveSearch(len(x))
	tr.ApplyAll(w.SearchXt, x)
	ops.AddScore(len(x))
	ops.AddRotate(len(x))
	return geom.ScoreSum(w.SearchDis2, w.SearchXt, y, p.D0*p.D0, p.ScoreD8*p.ScoreD8, !(p.ScoreD8 <= 0)) / p.LNorm
}
