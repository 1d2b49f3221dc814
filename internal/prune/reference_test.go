package prune

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"rckalign/internal/seqalign"
	"rckalign/internal/synth"
)

// refAligner is the float64 Gotoh aligner with full tables and a
// traceback that Filter.Bound called (as seqalign's AlignAffine) before
// affineScore replaced it. It stays as the oracle: the tests below pin
// it to brute force and to its own traceback, then pin affineScore and
// the bounds built on it to it.
type refAligner struct {
	m, x, y    []float64
	tm, tx, ty []int8
}

// alignAffine is an exact affine-gap global aligner (Gotoh 1982): both
// penalties are <= 0, a gap of length k costs gapOpen + k*gapExtend. The
// alignment is written into invmap (invmap[j] = i or -1) and the
// optimal score is returned.
func (a *refAligner) alignAffine(len1, len2 int, score seqalign.Scorer, gapOpen, gapExtend float64, invmap []int) float64 {
	if len(invmap) != len2 {
		panic("alignAffine: invmap length must equal len2")
	}
	const negInf = -1e18
	cols := len2 + 1
	n := (len1 + 1) * cols

	// M: best ending in a match; X: gap in chain 2 (consuming chain 1);
	// Y: gap in chain 1 (consuming chain 2).
	if cap(a.m) < n {
		a.m, a.x, a.y = make([]float64, n), make([]float64, n), make([]float64, n)
		a.tm, a.tx, a.ty = make([]int8, n), make([]int8, n), make([]int8, n)
	}
	m, x, y := a.m[:n], a.x[:n], a.y[:n]
	// Tracebacks: which matrix each cell's best predecessor lives in.
	const (
		fromM = 1
		fromX = 2
		fromY = 3
	)
	// No clearing needed: the init loops rewrite the borders and the fill
	// rewrites every interior cell, which together cover every cell the
	// traceback can read.
	tm, tx, ty := a.tm[:n], a.tx[:n], a.ty[:n]

	m[0] = 0
	x[0], y[0] = negInf, negInf
	for i := 1; i <= len1; i++ {
		m[i*cols] = negInf
		x[i*cols] = gapOpen + float64(i)*gapExtend
		y[i*cols] = negInf
		tx[i*cols] = fromX
	}
	for j := 1; j <= len2; j++ {
		m[j] = negInf
		x[j] = negInf
		y[j] = gapOpen + float64(j)*gapExtend
		ty[j] = fromY
	}

	max3 := func(a, b, c float64) (float64, int8) {
		if a >= b && a >= c {
			return a, fromM
		}
		if b >= c {
			return b, fromX
		}
		return c, fromY
	}

	for i := 1; i <= len1; i++ {
		row := i * cols
		prev := row - cols
		for j := 1; j <= len2; j++ {
			sc := score(i-1, j-1)
			bm, tmSrc := max3(m[prev+j-1], x[prev+j-1], y[prev+j-1])
			m[row+j] = bm + sc
			tm[row+j] = tmSrc

			// X: consume chain-1 residue i (gap in chain 2).
			openX := m[prev+j] + gapOpen + gapExtend
			extX := x[prev+j] + gapExtend
			if openX >= extX {
				x[row+j] = openX
				tx[row+j] = fromM
			} else {
				x[row+j] = extX
				tx[row+j] = fromX
			}

			// Y: consume chain-2 residue j (gap in chain 1).
			openY := m[row+j-1] + gapOpen + gapExtend
			extY := y[row+j-1] + gapExtend
			if openY >= extY {
				y[row+j] = openY
				ty[row+j] = fromM
			} else {
				y[row+j] = extY
				ty[row+j] = fromY
			}
		}
	}

	for j := range invmap {
		invmap[j] = -1
	}
	// Traceback from the best terminal state.
	best, state := max3(m[len1*cols+len2], x[len1*cols+len2], y[len1*cols+len2])
	i, j := len1, len2
	for i > 0 || j > 0 {
		switch state {
		case fromM:
			if i == 0 || j == 0 {
				// Should not happen with valid initialisation.
				if i > 0 {
					state = fromX
				} else {
					state = fromY
				}
				continue
			}
			invmap[j-1] = i - 1
			state = tm[i*cols+j]
			i--
			j--
		case fromX:
			state = tx[i*cols+j]
			i--
		default: // fromY
			state = ty[i*cols+j]
			j--
		}
	}
	return best
}

// seqScore is the reference's answer to affineScore's question, in
// residues rather than tenths: the sequence-identity score under the
// pre-filter's float penalties, exactly as Bound used to ask for it.
func (a *refAligner) seqScore(s1, s2 string) float64 {
	return a.alignAffine(len(s1), len(s2), func(i, j int) float64 {
		if s1[i] == s2[j] {
			return 1
		}
		return 0
	}, -1.0, -0.1, make([]int, len(s2)))
}

// bound is Filter.Bound as it was on the reference aligner: every cap
// evaluated for every pair, no short-circuit.
func (a *refAligner) bound(fa, fb *Features) float64 {
	minL, maxL := fa.Length, fb.Length
	if minL > maxL {
		minL, maxL = maxL, minL
	}
	if minL == 0 {
		return 0
	}
	bound := (float64(minL)/float64(maxL) + 1) / 2
	var compD float64
	for k := 1; k < 5; k++ {
		compD += math.Abs(fa.Comp[k] - fb.Comp[k])
	}
	compD /= 2
	bound = min(bound, rampDown(compD, compLo, compHi))
	if len(fa.Seq) >= fa.Length && len(fb.Seq) >= fb.Length {
		seqSim := a.seqScore(fa.Seq[:fa.Length], fb.Seq[:fb.Length]) / float64(minL)
		bound = min(bound, rampUp(seqSim, seqLo, seqHi))
	}
	return bound
}

// bruteForceAffine enumerates all global alignments under the affine
// objective: match scores plus gapOpen + k*gapExtend per maximal gap run
// of length k.
func bruteForceAffine(len1, len2 int, score seqalign.Scorer, gapOpen, gapExtend float64) float64 {
	best := -1e18
	// state: 0 = none/match, 1 = in gap consuming chain1, 2 = chain2.
	var rec func(i, j, state int, acc float64)
	rec = func(i, j, state int, acc float64) {
		if i == len1 && j == len2 {
			if acc > best {
				best = acc
			}
			return
		}
		if i < len1 && j < len2 {
			rec(i+1, j+1, 0, acc+score(i, j))
		}
		if i < len1 {
			pen := gapExtend
			if state != 1 {
				pen += gapOpen
			}
			rec(i+1, j, 1, acc+pen)
		}
		if j < len2 {
			pen := gapExtend
			if state != 2 {
				pen += gapOpen
			}
			rec(i, j+1, 2, acc+pen)
		}
	}
	rec(0, 0, 0, 0)
	return best
}

// randomSeq draws n residues from the first k letters, so short strings
// share residues often enough for matches to matter.
func randomSeq(rng *rand.Rand, n, k int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACDEFGHIKL"[rng.Intn(k)]
	}
	return string(b)
}

func TestAffineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := &refAligner{}
	for trial := 0; trial < 50; trial++ {
		len1 := 1 + rng.Intn(5)
		len2 := 1 + rng.Intn(5)
		mtx := make([]float64, len1*len2)
		for i := range mtx {
			mtx[i] = rng.Float64()*3 - 1
		}
		score := func(i, j int) float64 { return mtx[i*len2+j] }
		gapOpen := -rng.Float64() * 2
		gapExtend := -rng.Float64() * 0.5
		want := bruteForceAffine(len1, len2, score, gapOpen, gapExtend)
		invmap := make([]int, len2)
		got := a.alignAffine(len1, len2, score, gapOpen, gapExtend, invmap)
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: affine DP = %v, brute = %v (len %dx%d open %v ext %v)",
				trial, got, want, len1, len2, gapOpen, gapExtend)
		}
		if !seqalign.IsMonotonic(invmap, len1) {
			t.Fatalf("trial %d: invalid alignment %v", trial, invmap)
		}
	}

	// The integer kernel, under the pre-filter's own penalties: every
	// quantity is a whole number of tenths, so brute force in float64 is
	// exact and the comparison is ==. Dirty scratch on purpose.
	rows := make([]int32, 3*7)
	for trial := 0; trial < 300; trial++ {
		s1 := randomSeq(rng, rng.Intn(7), 1+rng.Intn(3))
		s2 := randomSeq(rng, rng.Intn(7), 1+rng.Intn(3))
		identity := func(i, j int) float64 {
			if s1[i] == s2[j] {
				return seqMatch
			}
			return 0
		}
		want := bruteForceAffine(len(s1), len(s2), identity, gapOpen, gapExtend)
		for k := range rows {
			rows[k] = rng.Int31()
		}
		if got := affineScore(s1, s2, rows); float64(got) != want {
			t.Fatalf("trial %d: affineScore(%q, %q) = %d tenths, brute = %v", trial, s1, s2, got, want)
		}
	}
}

// TestAffineAlignmentScoreConsistent replays the reference's returned
// alignment under the affine objective and checks it achieves the
// reported score.
func TestAffineAlignmentScoreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := &refAligner{}
	for trial := 0; trial < 20; trial++ {
		len1 := 2 + rng.Intn(20)
		len2 := 2 + rng.Intn(20)
		mtx := make([]float64, len1*len2)
		for i := range mtx {
			mtx[i] = rng.Float64()*2 - 0.6
		}
		score := func(i, j int) float64 { return mtx[i*len2+j] }
		gapOpen, gapExtend := -1.2, -0.2
		invmap := make([]int, len2)
		got := a.alignAffine(len1, len2, score, gapOpen, gapExtend, invmap)

		// Recompute the alignment's affine cost from invmap.
		acc := 0.0
		prevI := -1
		firstPair := true
		lastJ := -1
		for j, i := range invmap {
			if i < 0 {
				continue
			}
			acc += score(i, j)
			// Gap in chain 2 (skipped chain-1 residues between pairs).
			skip1 := i - prevI - 1
			if firstPair {
				skip1 = i // leading chain-1 residues
			}
			if skip1 > 0 {
				acc += gapOpen + float64(skip1)*gapExtend
			}
			skip2 := j - lastJ - 1
			if firstPair {
				skip2 = j
			}
			if skip2 > 0 {
				acc += gapOpen + float64(skip2)*gapExtend
			}
			prevI = i
			lastJ = j
			firstPair = false
		}
		if firstPair {
			continue // no aligned pairs: scoring convention ambiguous
		}
		// Trailing gaps.
		if tail1 := len1 - 1 - prevI; tail1 > 0 {
			acc += gapOpen + float64(tail1)*gapExtend
		}
		if tail2 := len2 - 1 - lastJ; tail2 > 0 {
			acc += gapOpen + float64(tail2)*gapExtend
		}
		if diff := got - acc; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: reported %v, alignment scores %v (invmap %v)", trial, got, acc, invmap)
		}
	}
}

// fuzzSeqLimit keeps one fuzz execution's reference tables small.
const fuzzSeqLimit = 300

// FuzzAffineScore: on any two byte strings the integer kernel agrees
// with the float64 reference to rounding (the reference sums tenths in
// binary floating point; the kernel is exact).
func FuzzAffineScore(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte(""), []byte("ACD"))
	f.Add([]byte("ACDEFGHIK"), []byte(""))
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDEGHIKLMNPQRTVWY"))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("G"))
	f.Add([]byte{0x80, 0xff, 'A', 0x00, 0xfe}, []byte{0xff, 'A', 0x80, 0x80, 0x00, 0x7f})
	f.Add([]byte(strings.Repeat("HEAG", 40)), []byte(strings.Repeat("HAEGL", 25)))
	ref := &refAligner{}
	var rows []int32
	f.Fuzz(func(t *testing.T, b1, b2 []byte) {
		s1 := string(b1[:min(len(b1), fuzzSeqLimit)])
		s2 := string(b2[:min(len(b2), fuzzSeqLimit)])
		if n := 3 * (max(len(s1), len(s2)) + 1); cap(rows) < n {
			rows = make([]int32, n)
		}
		tenths := affineScore(s1, s2, rows)
		got, want := float64(tenths)/seqMatch, ref.seqScore(s1, s2)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("affineScore(%q, %q) = %v, reference %v", s1, s2, got, want)
		}
		// The optimum does not depend on which chain the rows run along.
		if back := affineScore(s2, s1, rows); back != tenths {
			t.Fatalf("affineScore(%q, %q) = %d tenths but swapped = %d", s1, s2, tenths, back)
		}
	})
}

// TestBoundMatchesReferenceOnDatasets is the exhaustive check behind
// replacing the aligner: over every CK34 and RS119 pair the bound moves
// by no more than the reference's own rounding, and at every threshold a
// caller plausibly sets no Skip decision and no BoundHist bucket moves
// at all — including the pairs whose DP the floor short-circuit skips.
func TestBoundMatchesReferenceOnDatasets(t *testing.T) {
	datasets := []*synth.Dataset{synth.CK34()}
	if !testing.Short() {
		datasets = append(datasets, synth.RS119())
	}
	thresholds := []float64{0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 1.0}
	ref := &refAligner{}
	for _, ds := range datasets {
		feats := make([]Features, ds.Len())
		for i, s := range ds.Structures {
			feats[i] = Extract(s.CAs(), s.Sequence())
		}
		var refBounds []float64
		maxDelta, moved, floored := 0.0, 0, 0
		probe := New(0)
		for i := range feats {
			for j := i + 1; j < len(feats); j++ {
				want := ref.bound(&feats[i], &feats[j])
				cells := probe.Ops.DPCells
				got := probe.Bound(&feats[i], &feats[j])
				if probe.Ops.DPCells == cells {
					floored++
				}
				if d := math.Abs(got - want); d > 1e-12 {
					t.Errorf("%s pair (%d, %d): bound %v, reference %v", ds.Name, i, j, got, want)
				} else if d > 0 {
					moved++
					maxDelta = max(maxDelta, d)
				}
				refBounds = append(refBounds, want)
			}
		}
		t.Logf("%s: %d pairs, %d short-circuited, %d bounds off the reference by at most %.3g",
			ds.Name, len(refBounds), floored, moved, maxDelta)

		for _, thr := range thresholds {
			f := New(thr)
			want := Report{Threshold: thr}
			k := 0
			for i := range feats {
				for j := i + 1; j < len(feats); j++ {
					rb := refBounds[k]
					k++
					want.Total++
					want.BoundHist[min(int(rb*10), 10)]++
					if rb < thr {
						want.Skipped++
					}
					if got := f.Skip(&feats[i], &feats[j]); got != (rb < thr) {
						t.Errorf("%s T=%v pair (%d, %d): Skip = %v, reference bound %v", ds.Name, thr, i, j, got, rb)
					}
				}
			}
			want.DPCells = f.Report.DPCells
			if f.Report != want {
				t.Errorf("%s T=%v: report %+v, reference %+v", ds.Name, thr, f.Report, want)
			}
		}
	}
}
