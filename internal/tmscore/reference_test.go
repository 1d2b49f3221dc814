package tmscore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/ss"
	"rckalign/internal/synth"
)

// referenceScoreFun8 and referenceSearch are the rotation search as it
// stood before the trajectory graph (DESIGN.md §17), kept verbatim as the
// oracle SearchWS must equal to the last bit and the last op: every seed
// superposes, rotates and scores every step it takes, sets are index
// lists, and convergence is an element-wise comparison. The only
// addition is observe, which the tests use to see the sets a seed walks
// through.
func (p Params) referenceScoreFun8(xt, y []geom.Vec3, d float64, iAli []int, dis2 []float64, ops *costmodel.Counter) (float64, int) {
	n := len(xt)
	d02 := p.D0 * p.D0
	var scoreSum float64
	for i := range xt {
		di := xt[i].Dist2(y[i])
		dis2[i] = di
		if p.ScoreD8 <= 0 || di <= p.ScoreD8*p.ScoreD8 {
			scoreSum += 1 / (1 + di/d02)
		}
	}
	dTmp := d * d
	nCut := 0
	for inc := 0; ; inc++ {
		nCut = 0
		for i, di := range dis2 {
			if di < dTmp {
				iAli[nCut] = i
				nCut++
			}
		}
		ops.AddScore(n)
		if nCut < 3 && n > 3 {
			dinc := d + float64(inc+1)*0.5
			dTmp = dinc * dinc
			continue
		}
		break
	}
	return scoreSum / p.LNorm, nCut
}

func (p Params) referenceSearch(x, y []geom.Vec3, simplifyStep int, ops *costmodel.Counter, observe func(seed int, set []int)) (float64, geom.Transform) {
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

	const nInitMax = 6
	liniMin := 4
	if n < liniMin {
		liniMin = n
	}
	var ladder []int
	for i := 0; i < nInitMax-1; i++ {
		l := n >> uint(i)
		if l > liniMin {
			ladder = append(ladder, l)
		} else {
			break
		}
	}
	ladder = append(ladder, liniMin)

	scoreMax := -1.0
	bestT := geom.IdentityTransform()
	xt := make([]geom.Vec3, n)
	iAli := make([]int, n)
	kAli := make([]int, n)
	r1 := make([]geom.Vec3, n)
	r2 := make([]geom.Vec3, n)
	dis2 := make([]float64, n)

	seed := 0
	for _, lInit := range ladder {
		iLMax := n - lInit + 1
		for iL := 0; iL < iLMax; iL += simplifyStep {
			tr, _ := geom.Superpose(x[iL:iL+lInit], y[iL:iL+lInit])
			ops.AddKabsch(lInit)
			tr.ApplyAll(xt, x)
			ops.AddRotate(n)

			score, nCut := p.referenceScoreFun8(xt, y, p.D0Search-1, iAli, dis2, ops)
			if score > scoreMax {
				scoreMax = score
				bestT = tr
			}

			d := p.D0Search + 1
			for it := 0; it < searchIterations; it++ {
				ka := 0
				for k := 0; k < nCut; k++ {
					m := iAli[k]
					r1[ka] = x[m]
					r2[ka] = y[m]
					kAli[ka] = m
					ka++
				}
				if ka < 1 {
					break
				}
				if observe != nil {
					observe(seed, kAli[:ka])
				}
				tr, _ = geom.Superpose(r1[:ka], r2[:ka])
				ops.AddKabsch(ka)
				tr.ApplyAll(xt, x)
				ops.AddRotate(n)
				score, nCut = p.referenceScoreFun8(xt, y, d, iAli, dis2, ops)
				if score > scoreMax {
					scoreMax = score
					bestT = tr
				}
				if nCut == ka {
					same := true
					for k := 0; k < nCut; k++ {
						if iAli[k] != kAli[k] {
							same = false
							break
						}
					}
					if same {
						break // converged
					}
				}
			}
			seed++
		}
	}
	return scoreMax, bestT
}

// searchOutcome is everything a rotation search returns or charges.
type searchOutcome struct {
	score uint64
	tr    geom.Transform
	ops   costmodel.Counter
}

// checkSearchMatchesReference runs SearchWS (with a counter and with
// none) and the reference on one input and requires the score bits, all
// twelve transform floats and every Counter field to be equal.
func checkSearchMatchesReference(t testing.TB, w *kernel.Workspace, p Params, x, y []geom.Vec3, step int) searchOutcome {
	t.Helper()
	var want, got searchOutcome
	s, tr := p.referenceSearch(x, y, step, &want.ops, nil)
	want.score, want.tr = math.Float64bits(s), tr
	s, tr = p.SearchWS(w, x, y, step, &got.ops)
	got.score, got.tr = math.Float64bits(s), tr
	if got != want {
		t.Fatalf("n=%d step=%d: SearchWS\n got %+v\nwant %+v", len(x), step, got, want)
	}
	if s2, tr2 := p.SearchWS(w, x, y, step, nil); math.Float64bits(s2) != want.score || tr2 != want.tr {
		t.Fatalf("n=%d step=%d: SearchWS with a nil counter returns %v %v, want %v %v", len(x), step, s2, tr2, s, tr)
	}
	return got
}

// alignedPerturbation returns the CA trace of a synthetic fold and of a
// perturbed family member, position for position (no indels).
func alignedPerturbation(n int, noise float64, seed int64) (x, y []geom.Vec3) {
	base := synth.Generate("b", synth.Blueprint{
		{Type: ss.Helix, Len: n / 3}, {Type: ss.Coil, Len: 4},
		{Type: ss.Strand, Len: n / 4}, {Type: ss.Coil, Len: 3},
		{Type: ss.Helix, Len: n - n/3 - n/4 - 7},
	}, seed)
	return base.CAs(), synth.Perturb(base, "m", synth.PerturbOptions{Noise: noise}, seed).CAs()
}

func TestSearchMatchesReference(t *testing.T) {
	w := new(kernel.Workspace)
	for _, n := range []int{24, 57, 130} {
		for _, noise := range []float64{0, 0.6, 2.5, 9} {
			x, y := alignedPerturbation(n, noise, int64(n)+int64(noise*10))
			for _, p := range []Params{SearchParams(n, n+9), FinalParams(float64(n))} {
				for _, step := range []int{1, 40} {
					checkSearchMatchesReference(t, w, p, x, y, step)
				}
			}
		}
	}
	// Unrelated chains, and the degenerate sizes: below the shortest
	// seed, and n <= 3 where the cutoff is never relaxed, so pairs 50 A
	// apart leave the collected set empty.
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 4, 5, 33} {
		x, y := randomTrace(rng, n), randomTrace(rng, n)
		checkSearchMatchesReference(t, w, SearchParams(n, n), x, y, 1)
		for i := range y {
			y[i] = y[i].Add(geom.V(50*float64(i*i), 0, 0))
		}
		got := checkSearchMatchesReference(t, w, FinalParams(float64(n)), x, y, 1)
		if n == 3 && got.ops.KabschCalls != 1 {
			t.Errorf("n=3, no pair within the cutoff: %d Kabsch solves, want the one seed only", got.ops.KabschCalls)
		}
	}
}

// bentLine is a straight chain against a gently curved one: every seed
// extends by a few pairs per iteration, so trajectories are longer than
// the iteration cap and later seeds run onto nodes an earlier seed
// reached but never superposed.
func bentLine(n int, curvature float64) (x, y []geom.Vec3) {
	x, y = make([]geom.Vec3, n), make([]geom.Vec3, n)
	r := 3.8 / curvature
	for i := range x {
		a := curvature * float64(i)
		x[i] = geom.V(3.8*float64(i), 0, 0)
		y[i] = geom.V(r*math.Sin(a), r*(1-math.Cos(a)), 0)
	}
	return x, y
}

func TestSearchResumesOnUnexpandedNode(t *testing.T) {
	x, y := bentLine(240, 0.02)
	p := SearchParams(len(x), len(x))
	// Replay the reference with the graph's bookkeeping to prove the
	// input takes the path: some seed first revisits sets an earlier seed
	// superposed and then reaches one nobody has.
	superposed := map[string]bool{}
	var trail []string
	seedNow, resumed, capped := 0, 0, 0
	endSeed := func() {
		walked := false
		for _, s := range trail {
			if superposed[s] {
				walked = true
			} else if walked {
				resumed++
				break
			}
		}
		if len(trail) == searchIterations {
			capped++
		}
		for _, s := range trail {
			superposed[s] = true
		}
		trail = trail[:0]
	}
	p.referenceSearch(x, y, 1, nil, func(seed int, set []int) {
		if seed != seedNow {
			endSeed()
			seedNow = seed
		}
		trail = append(trail, fmt.Sprint(set))
	})
	endSeed()
	if resumed == 0 || capped == 0 {
		t.Fatalf("the fixture no longer resumes on an unexpanded node (%d seeds) or hits the iteration cap (%d)", resumed, capped)
	}
	checkSearchMatchesReference(t, new(kernel.Workspace), p, x, y, 1)
}

// TestSearchGraphFlush shrinks the graph's arena until it is flushed
// between seeds — down to every seed — and requires the same answer:
// past the cap the search simply computes again.
func TestSearchGraphFlush(t *testing.T) {
	defer func(v int) { maxGraphWords = v }(maxGraphWords)
	x, y := alignedPerturbation(90, 1.5, 7)
	w := new(kernel.Workspace)
	const setWords = 3 // ceil(90/32)
	for _, maxGraphWords = range []int{0, 100, 400, 2000} {
		checkSearchMatchesReference(t, w, SearchParams(90, 90), x, y, 1)
		if limit := max(maxGraphWords, (searchIterations+1)*setWords); len(w.SearchGraph.Vals)*setWords > limit {
			t.Errorf("cap %d words: the graph ends with %d nodes of %d words", maxGraphWords, len(w.SearchGraph.Vals), setWords)
		}
	}
}

// TestExtendChargesRevisitedSteps drives the trajectory walk with
// synthetic graphs, which geometry produces too rarely to find (a set
// cycle of period > 1 needs a tie in the trimmed least-squares objective
// the iteration descends).
func TestExtendChargesRevisitedSteps(t *testing.T) {
	const n = 10
	build := func(next ...int32) *kernel.Table[kernel.SearchNode] {
		g := new(kernel.Table[kernel.SearchNode])
		g.Reset(kernel.MemoWords)
		for id, nx := range next {
			_, v, _ := g.Slot([]int32{int32(id)})
			*v = kernel.SearchNode{Next: nx, Size: int32(3 + id), Evals: n}
		}
		return g
	}
	never := func(cur int) { t.Fatalf("expanded node %d, which was already superposed", cur) }

	// A 3-cycle never converges: exactly searchIterations steps.
	var c costmodel.Counter
	extend(build(1, 2, 0), 0, n, &c, never)
	if want := (costmodel.Counter{KabschCalls: 20, KabschPoints: 7*3 + 7*4 + 6*5, RotationOps: 20 * n, ScoreEvals: 20 * n}); c != want {
		t.Errorf("3-cycle charged %+v, want %+v", c, want)
	}

	// A chain into a fixed point stops after charging the fixed point once.
	c = costmodel.Counter{}
	extend(build(1, 2, 2), 0, n, &c, never)
	if c.KabschCalls != 3 || c.KabschPoints != 3+4+5 {
		t.Errorf("chain into a fixed point charged %+v, want 3 solves over 12 points", c)
	}

	// A chain that ends on a node nobody superposed expands exactly it.
	c = costmodel.Counter{}
	g := build(1, 2, -1)
	var expanded []int
	extend(g, 0, n, &c, func(cur int) {
		expanded = append(expanded, cur)
		g.Vals[cur].Next = int32(cur)
	})
	if len(expanded) != 1 || expanded[0] != 2 || c.KabschCalls != 3 {
		t.Errorf("expanded %v with %d solves, want node 2 only and 3 solves", expanded, c.KabschCalls)
	}

	// An empty set is terminal: nothing to superpose, nothing charged.
	c = costmodel.Counter{}
	g = build(-1)
	g.Vals[0].Size = 0
	extend(g, 0, n, &c, never)
	if c != (costmodel.Counter{}) {
		t.Errorf("empty set charged %+v", c)
	}
}

// FuzzSearchMatchesReference builds two aligned traces from the fuzzer's
// bytes — a CA-like walk and a copy bent, shifted and jittered by them —
// and requires SearchWS to equal the reference to the last bit and op.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(1), false)
	f.Add([]byte{0, 255, 3, 9, 200, 17, 17, 17, 80, 41, 5, 6, 7, 250, 128, 1}, uint8(40), true)
	f.Add([]byte{1, 2, 3}, uint8(0), false)
	f.Add([]byte{}, uint8(2), true)
	w := new(kernel.Workspace)
	f.Fuzz(func(t *testing.T, data []byte, step uint8, final bool) {
		if len(data) > 160 {
			data = data[:160]
		}
		n := len(data)
		x, y := make([]geom.Vec3, n), make([]geom.Vec3, n)
		cur := geom.V(0, 0, 0)
		for i, b := range data {
			a, e := float64(b&15)*0.4, float64(b>>4)*0.2
			cur = cur.Add(geom.V(math.Cos(a)*math.Cos(e), math.Sin(a)*math.Cos(e), math.Sin(e)).Scale(3.8))
			x[i] = cur
			// The copy drifts away along the chain and jumps where the
			// byte says so: near pairs, far pairs and pairs at the cutoff.
			y[i] = geom.RotX(0.01 * float64(i)).MulVec(cur).Add(geom.V(float64(b%7), float64(b%5)*0.5, 0))
			if b > 240 {
				y[i] = y[i].Add(geom.V(60, 0, 0))
			}
		}
		p := SearchParams(n, n)
		if final {
			p = FinalParams(float64(n))
		}
		checkSearchMatchesReference(t, w, p, x, y, int(step))
	})
}
