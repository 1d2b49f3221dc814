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
// lists, and convergence is an element-wise comparison. The only changes
// are observe, which the tests use to see the sets a seed walks through,
// and the TM term, which follows geom.Term's one-divide form
// d02/(d02+di) so the two searches still agree bit for bit.
func (p Params) referenceScoreFun8(xt, y []geom.Vec3, d float64, iAli []int, dis2 []float64, ops *costmodel.Counter) (float64, int) {
	n := len(xt)
	d02 := p.D0 * p.D0
	var scoreSum float64
	for i := range xt {
		di := xt[i].Dist2(y[i])
		dis2[i] = di
		if p.ScoreD8 <= 0 || di <= p.ScoreD8*p.ScoreD8 {
			scoreSum += d02 / (d02 + di)
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
// between seeds and requires the same answer: past the cap the search
// simply computes again. The arena always has room for two seeds' sets.
// At cap 0 that is all it has, so every new seed after the first two
// waits for the other walk to drain and then flushes; at 400 words the
// graph fills partway through a walk, at 2000 a few times a search.
func TestSearchGraphFlush(t *testing.T) {
	defer func(v int) { maxGraphWords = v }(maxGraphWords)
	x, y := alignedPerturbation(90, 1.5, 7)
	w := new(kernel.Workspace)
	const setWords = 3 // ceil(90/32)
	for _, maxGraphWords = range []int{0, 100, 400, 2000} {
		checkSearchMatchesReference(t, w, SearchParams(90, 90), x, y, 1)
		if limit := max(maxGraphWords, 2*(searchIterations+1)*setWords); len(w.SearchGraph.Vals)*setWords > limit {
			t.Errorf("cap %d words: the graph ends with %d nodes of %d words", maxGraphWords, len(w.SearchGraph.Vals), setWords)
		}
	}
}

// TestSearchTieGoesToEarlierSeed pins the position tie-break on a
// straight, evenly spaced chain of 48 residues against a copy in which
// residues 0-11 are translated 50 A sideways, 24-35 sit in place and the
// rest repeat a period-6 pattern of offsets, 25-45 A sideways and 0 or
// 20 A up, past the d8 cutoff under either motion. A fragment of
// one straight group superposes with the identity rotation exactly, so
// the translation and the identity each score 12 ones over 48, to the
// bit. In the sequential order a seed reaches the identity first; in the
// lockstep one a later seed offers the translation sooner, so a search
// that let the first offer win instead of the first place would return
// the translation.
func TestSearchTieGoesToEarlierSeed(t *testing.T) {
	const n = 48
	x, y := make([]geom.Vec3, n), make([]geom.Vec3, n)
	for i := range x {
		x[i] = geom.V(3.8*float64(i), 0, 0)
		y[i] = x[i]
		switch {
		case i < 12:
			y[i][1] = 50
		case i < 24 || i >= 36:
			y[i][1], y[i][2] = -25-10*float64(i%3), 20*float64(i%2)
		}
	}
	p := SearchParams(n, n)
	moved := geom.Transform{R: geom.Identity(), T: geom.V(0, 50, 0)}
	tie := p.ScoreWithTransform(x, y, moved, nil)
	for _, step := range []int{1, 40} {
		got := checkSearchMatchesReference(t, new(kernel.Workspace), p, x, y, step)
		if math.Float64bits(tie) != got.score || tie != 12.0/n {
			t.Fatalf("step %d: the fixture has no tie: best %v, translation %v", step, math.Float64frombits(got.score), tie)
		}
		if got.tr != geom.IdentityTransform() {
			t.Errorf("step %d: the tie went to %+v, want the identity", step, got.tr)
		}
	}
}

// TestExtendChargesRevisitedSteps drives a walk through synthetic
// graphs, which geometry produces too rarely to find (a set cycle of
// period > 1 needs a tie in the trimmed least-squares objective the
// iteration descends), and checks what its steps charge and offer.
func TestExtendChargesRevisitedSteps(t *testing.T) {
	const n = 10
	build := func(next ...int32) *search {
		s := &search{x: make([]geom.Vec3, n), g: new(kernel.Table[kernel.SearchNode]), best: -1}
		s.g.Reset(kernel.MemoWords)
		for id, nx := range next {
			_, v, _ := s.g.Slot([]int32{int32(id)})
			*v = kernel.SearchNode{Next: nx, Size: int32(3 + id), Evals: n, Score: float64(id) / 10}
		}
		return s
	}
	// A 3-cycle never converges: exactly searchIterations steps, and the
	// best of its steps is node 2's first visit, step 2.
	s := build(1, 2, 0)
	wk := &walk{seed: 3}
	if s.advance(wk) {
		t.Fatalf("3-cycle stopped for a solve at node %d", wk.cur)
	}
	if want := (costmodel.Counter{KabschCalls: 20, KabschPoints: 7*3 + 7*4 + 6*5, RotationOps: 20 * n, ScoreEvals: 20 * n}); s.c != want {
		t.Errorf("3-cycle charged %+v, want %+v", s.c, want)
	}
	if s.best != 0.2 || s.bestPos != place(3, 2) || wk.seed != -1 {
		t.Errorf("3-cycle: best %v at %d (want 0.2 at %d), slot seed %d", s.best, s.bestPos, place(3, 2), wk.seed)
	}

	// A chain into a fixed point stops after charging the fixed point once.
	s = build(1, 2, 2)
	if s.advance(&walk{}) || s.c.KabschCalls != 3 || s.c.KabschPoints != 3+4+5 {
		t.Errorf("chain into a fixed point charged %+v, want 3 solves over 12 points", s.c)
	}

	// A chain that ends on a node nobody superposed stops there for its
	// solve, then takes the step once the node is expanded.
	s = build(1, 2, -1)
	wk = &walk{}
	if !s.advance(wk) || wk.cur != 2 || wk.it != 2 || s.c.KabschCalls != 2 {
		t.Fatalf("stopped at node %d after %d steps and %d solves, want node 2 after 2 and 2", wk.cur, wk.it, s.c.KabschCalls)
	}
	s.g.Vals[2].Next = 2
	if s.advance(wk) || s.c.KabschCalls != 3 {
		t.Errorf("after the expansion: %d solves, want 3", s.c.KabschCalls)
	}

	// An empty set is terminal: nothing to superpose, nothing charged.
	s = build(-1)
	s.g.Vals[0].Size = 0
	if s.advance(&walk{}) || s.c != (costmodel.Counter{}) {
		t.Errorf("empty set charged %+v", s.c)
	}

	// Offers keep the first best place: an equal score from a later place
	// does not displace it, one from an earlier place does.
	s = build()
	a, b := geom.IdentityTransform(), geom.Transform{R: geom.RotX(1)}
	s.offer(0.5, &b, place(1, 4))
	s.offer(0.5, &a, place(2, -1))
	if s.bestT != b {
		t.Error("a tie from a later place displaced the incumbent")
	}
	s.offer(0.5, &a, place(1, -1))
	if s.bestT != a || s.bestPos != place(1, -1) {
		t.Error("a tie from an earlier place did not displace the incumbent")
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
