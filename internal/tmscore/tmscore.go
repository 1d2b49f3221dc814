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
	return float64(1.24*math.Cbrt(l-15)) - 1.8
}

// SearchParams returns the parameter set TM-align uses while searching
// for the optimal alignment of chains with lengths xlen and ylen
// (normalization by the shorter chain, inflated d0 for robustness,
// score_d8 long-distance cutoff).
func SearchParams(xlen, ylen int) Params {
	lnorm := float64(min(xlen, ylen))
	d0 := 0.168
	if lnorm > 19 {
		d0 = d0OfLength(lnorm)
	}
	d0 += 0.8 // D0_MIN = d0+0.8; d0 = D0_MIN ("best for search")
	return Params{LNorm: lnorm, D0: d0, D0Search: min(max(d0, 4.5), 8), ScoreD8: float64(1.5*math.Pow(lnorm, 0.3)) + 3.5}
}

// FinalParams returns the parameter set used to report the final TM-score
// normalised by length l (parameter_set4final). The d8 cutoff is disabled
// in final scoring.
func FinalParams(l float64) Params {
	d0 := 0.5
	if l > 21 {
		d0 = max(d0OfLength(l), 0.5)
	}
	return Params{LNorm: l, D0: d0, D0Search: min(max(d0, 4.5), 8)}
}

// scoreFun8 is TM-align's score_fun8 on x mapped through t, one
// geom.ScorePass: the TM-score (sum/LNorm; with score_d8, only over pairs
// within it) and the pairs closer than d, collected into set and relaxed
// by 0.5 A steps while fewer than 3 qualify (relaxSquare), and the score
// evaluations to charge: n per round, as the reference rescans all n.
func (p Params) scoreFun8(set []int32, dis2 []float64, t *geom.Transform, x, y geom.Cols, d float64) (score float64, nCut, evals int) {
	sum, nCut := geom.ScorePass(set, dis2, t, x, y, p.D0*p.D0, p.ScoreD8*p.ScoreD8, d*d, p.ScoreD8 > 0)
	nCut, rounds := relaxSquare(dis2, d, nCut, func(c float64) int { return geom.Collect(set, dis2, c) })
	return sum / p.LNorm, nCut, len(dis2) * rounds
}

// RelaxSum is get_score_fast's relaxation (relax): the cutoff is cut2
// plus 0.5 per round, each sum rounded, and pairs pass with <=. The adds
// within one binade below 2^52 are exact, so it jumps to the binade's
// last cutoff short of the target, then takes the rounded add across.
func RelaxSum(dis2 []float64, cut2 float64, take func(cutoff float64) int) (nCut, rounds int) {
	return relax(dis2, take(cut2), take, func(t float64) (float64, int, bool) {
		c, r := cut2, 0
		for !(c >= t) {
			if 0 < c && c < 1<<52 {
				hi := math.Float64frombits(math.Float64bits(c)&^(1<<52-1) + 1<<52)
				s := math.Ceil(2*(min(t, hi)-c)) - 1
				c, r = c+float64(s*0.5), r+int(s)
			}
			if !(c+0.5 > c) {
				return 0, 0, false
			}
			c, r = c+0.5, r+1
		}
		return c, r, true
	})
}

// relaxSquare is score_fun8's relaxation (relax) after a first round
// that let nCut pairs through: round r's cutoff is (d + r*0.5)², and pairs
// pass with <. Rounds with d + r*0.5 <= 0 cut no deeper than round 0, so
// passing is monotone in r: double, then bisect.
func relaxSquare(dis2 []float64, d float64, nCut int, take func(cutoff float64) int) (int, int) {
	at := func(r float64) float64 { x := d + float64(r*0.5); return x * x }
	return relax(dis2, nCut, take, func(t float64) (float64, int, bool) {
		lo, hi := -1.0, 0.0
		for !(at(hi) > t) {
			if lo, hi = hi, 2*hi+1; hi > 1<<52 {
				return 0, 0, false
			}
		}
		for hi-lo > 1 {
			if mid := math.Floor((lo + hi) / 2); at(mid) > t {
				hi = mid
			} else {
				lo = mid
			}
		}
		return at(hi), int(hi), true
	})
}

// relax is TM-align's cutoff relaxation: after a first gather that let
// nCut pairs through, while fewer than three of more than three pass,
// relax the cutoff and gather again (take returns the count). Three pass
// once the cutoff reaches the third-smallest entry t of dis2, so a short
// first gather is followed by one pass for t, reach(t) for the first
// cutoff past it and its round, and one more gather. It returns the last
// count and the rounds (scans) of the reference loop; where that never
// ends, reach fails and the first round stands (DESIGN.md §17).
func relax(dis2 []float64, nCut int, take func(float64) int, reach func(t float64) (float64, int, bool)) (int, int) {
	if nCut >= 3 || len(dis2) <= 3 {
		return nCut, 1
	}
	m1, m2, t := math.Inf(1), math.Inf(1), math.Inf(1)
	for _, v := range dis2 {
		if v < t {
			m1, m2, t = min(m1, v), max(m1, min(m2, v)), max(m2, v)
		}
	}
	c, r, ok := reach(t)
	if !ok {
		return nCut, 1
	}
	return take(c), r + 1
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
// rounds per node) without redoing them.
//
// Seeds are independent, so two walks run in lockstep and each round's
// two solves share one geom.Superpose2. Every step offers the incumbent
// its score and transform tagged with its place in the sequential order
// (seed, then step), and ties go to the earlier place: the result is the
// first best offer of the one-seed-at-a-time loop, whatever order the
// walks ran in. DESIGN.md §17.
func (p Params) SearchWS(w *kernel.Workspace, x, y []geom.Vec3, simplifyStep int, ops *costmodel.Counter) (float64, geom.Transform) {
	n := len(x)
	if n != len(y) {
		panic(fmt.Errorf("%w (Search: %d vs %d)", ErrAlignedLength, n, len(y)))
	}
	if n == 0 {
		return 0, geom.IdentityTransform()
	}
	s := search{p: p, x: x, y: y, step: max(simplifyStep, 1), best: -1, bestT: geom.IdentityTransform()}

	// Fragment-length ladder: n, n/2, n/4, ... down to min(n, 4).
	liniMin := min(n, 4)
	for ; s.rungs < len(s.ladder)-1 && n>>uint(s.rungs) > liniMin; s.rungs++ {
		s.ladder[s.rungs] = n >> uint(s.rungs)
	}
	s.ladder[s.rungs] = liniMin
	s.rungs++

	w.ReserveSearch(n)
	s.xc, s.yc = geom.ColsOf(w.SearchCols, n, x), geom.ColsOf(w.SearchCols[3*n:], n, y)
	s.dis2, s.set = w.SearchDis2[:n], w.SearchSet[:(n+31)/32]
	for k := range s.r1 {
		s.r1[k], s.r2[k] = w.SearchR1[k*n:(k+1)*n], w.SearchR2[k*n:(k+1)*n]
	}
	s.g = &w.SearchGraph
	s.run()
	ops.Add(s.c)
	return s.best, s.bestT
}

// search is one SearchWS call in flight.
type search struct {
	p        Params
	x, y     []geom.Vec3
	step     int       // the seeds' stride
	xc, yc   geom.Cols // x and y as columns, for geom.ScorePass
	dis2     []float64
	set      []int32 // the pairs the last scoring pass collected
	r1, r2   [2][]geom.Vec3
	g        *kernel.Table[kernel.SearchNode]
	c        costmodel.Counter // charged here, added to ops on return
	ladder   [6]int            // seed lengths, TM-align's n_init_max rungs
	rungs    int
	rung, iL int // the next seed fragment
	seeds    int // seeds started
	best     float64
	bestT    geom.Transform
	bestPos  int
}

// A walk is one seed's extension through the trajectory graph.
type walk struct {
	seed      int // place in the seed order; -1 while the slot is idle
	iL, lInit int // the seed fragment
	cur       int // the node the walk stands on; -1 until the fragment is superposed
	it        int // steps taken
}

// place is a step's position in the sequential order: a seed's own
// superposition, then its steps 0, 1, ....
func place(seed, it int) int { return seed*(searchIterations+1) + it + 1 }

// run drives two walks to the end of the seed ladder. A seed interns its
// first set and at most one more per step, so a new seed starts only if
// the graph can hold two seeds' sets; otherwise it waits for the other
// walk to end and then flushes the graph, so interning never fails while
// node numbers are live, and past the bound the search recomputes.
func (s *search) run() {
	seedWords := (searchIterations + 1) * len(s.set)
	limit := max(maxGraphWords, 2*seedWords)
	s.g.Reset(limit)
	slots := [2]walk{{seed: -1}, {seed: -1}}
	for {
		var solve [2]*walk
		ns := 0
		for k := range slots {
			wk, other := &slots[k], &slots[1-k]
			for {
				if wk.seed < 0 {
					if s.rung == s.rungs {
						break // no seed left
					}
					if s.g.Free() < 2*seedWords {
						if other.seed >= 0 {
							break // drain the other walk first
						}
						s.g.Reset(limit)
					}
					s.start(wk)
				}
				if !s.advance(wk) {
					continue // the walk ended: take the next seed
				}
				// Two walks at one unexpanded node: the first expands it.
				if ns == 0 || wk.cur < 0 || wk.cur != solve[0].cur {
					solve[ns] = wk
					ns++
				}
				break
			}
		}
		switch ns {
		case 0:
			return
		case 1:
			p, q := s.points(0, solve[0])
			tr, _ := geom.Superpose(p, q)
			s.solved(solve[0], tr)
		case 2:
			p1, q1 := s.points(0, solve[0])
			p2, q2 := s.points(1, solve[1])
			t1, _, t2, _ := geom.Superpose2(p1, q1, p2, q2)
			s.solved(solve[0], t1)
			s.solved(solve[1], t2)
		}
	}
}

// start puts the next seed fragment on wk.
func (s *search) start(wk *walk) {
	lInit := s.ladder[s.rung]
	*wk = walk{seed: s.seeds, iL: s.iL, lInit: lInit, cur: -1}
	s.seeds++
	if s.iL += s.step; s.iL > len(s.x)-lInit {
		s.rung, s.iL = s.rung+1, 0
	}
}

// advance takes wk's steps onto nodes already expanded, charging what
// the reference algorithm spends on each (one Kabsch solve over the set,
// one rotation of all n pairs and the scoring rounds) and offering the
// step's score and transform. It stops with true where wk needs a solve
// (its seed fragment, or a node nobody expanded yet) and with false when
// the walk is over: the iteration cap, an empty set, or a set that
// reproduces itself. An ended walk leaves the slot idle.
func (s *search) advance(wk *walk) bool {
	if wk.cur < 0 {
		return true
	}
	for wk.it < searchIterations {
		nd := &s.g.Vals[wk.cur]
		if nd.Size == 0 {
			break
		}
		if nd.Next < 0 {
			return true
		}
		s.c.AddKabsch(int(nd.Size))
		s.c.AddRotate(len(s.x))
		s.c.AddScore(int(nd.Evals))
		s.offer(nd.Score, &nd.Tr, place(wk.seed, wk.it))
		wk.it++
		if int(nd.Next) == wk.cur {
			break // converged
		}
		wk.cur = int(nd.Next)
	}
	wk.seed = -1
	return false
}

// points returns the pairs wk's solve superposes: its seed fragment, or
// its node's set gathered into buffer pair k.
func (s *search) points(k int, wk *walk) (p, q []geom.Vec3) {
	if wk.cur < 0 {
		return s.x[wk.iL : wk.iL+wk.lInit], s.y[wk.iL : wk.iL+wk.lInit]
	}
	ka := gatherSet(s.g.Key(wk.cur), s.x, s.y, s.r1[k], s.r2[k])
	return s.r1[k][:ka], s.r2[k][:ka]
}

// solved scores the transform of wk's solve. A seed fragment's step is
// charged and offered here and the walk moves onto the set the tighter
// cutoff collects; a node records its step's score, transform, cost and
// successor under the looser cutoff, and advance takes the step.
func (s *search) solved(wk *walk, tr geom.Transform) {
	if wk.cur < 0 {
		s.c.AddKabsch(wk.lInit)
		s.c.AddRotate(len(s.x))
		score, nCut, evals := s.p.scoreFun8(s.set, s.dis2, &tr, s.xc, s.yc, s.p.D0Search-1)
		s.c.AddScore(evals)
		s.offer(score, &tr, place(wk.seed, -1))
		wk.cur = s.node(nCut)
		return
	}
	score, nCut, evals := s.p.scoreFun8(s.set, s.dis2, &tr, s.xc, s.yc, s.p.D0Search+1)
	next := s.node(nCut)
	nd := &s.g.Vals[wk.cur]
	nd.Next, nd.Evals, nd.Score, nd.Tr = int32(next), int64(evals), score, tr
}

// node interns the set the last scoring pass collected (size pairs).
func (s *search) node(size int) int {
	id, v, hit := s.g.Slot(s.set)
	if !hit {
		*v = kernel.SearchNode{Next: -1, Size: int32(size)}
	}
	return id
}

// offer makes (score, tr), the result of the step at place pos, the
// incumbent if it scores higher, or as high from an earlier place.
func (s *search) offer(score float64, tr *geom.Transform, pos int) {
	if score > s.best || score == s.best && pos < s.bestPos {
		s.best, s.bestT, s.bestPos = score, *tr, pos
	}
}
