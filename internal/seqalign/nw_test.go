package seqalign

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/ss"
	"rckalign/internal/synth"
)

// bruteForceBest enumerates every global alignment path and scores it with
// the NWDP_TM objective (match scores; gapOpen charged on a gap move that
// immediately follows a match move) and returns the maximum total.
func bruteForceBest(len1, len2 int, score Scorer, gapOpen float64) float64 {
	best := -1e18
	var rec func(i, j int, prevMatch bool, acc float64)
	rec = func(i, j int, prevMatch bool, acc float64) {
		if i == len1 && j == len2 {
			if acc > best {
				best = acc
			}
			return
		}
		if i < len1 && j < len2 {
			rec(i+1, j+1, true, acc+score(i, j))
		}
		if i < len1 {
			pen := 0.0
			if prevMatch {
				pen = gapOpen
			}
			rec(i+1, j, false, acc+pen)
		}
		if j < len2 {
			pen := 0.0
			if prevMatch {
				pen = gapOpen
			}
			rec(i, j+1, false, acc+pen)
		}
	}
	rec(0, 0, false, 0)
	return best
}

// dpBest re-runs the DP and reads the terminal cell value via a fresh
// aligner by scoring the returned alignment is not enough (ties); instead
// we recompute the DP max directly with the same recurrence.
func dpBest(len1, len2 int, score Scorer, gapOpen float64) float64 {
	cols := len2 + 1
	val := make([]float64, (len1+1)*cols)
	path := make([]bool, (len1+1)*cols)
	for i := 1; i <= len1; i++ {
		for j := 1; j <= len2; j++ {
			d := val[(i-1)*cols+j-1] + score(i-1, j-1)
			h := val[(i-1)*cols+j]
			if path[(i-1)*cols+j] {
				h += gapOpen
			}
			v := val[i*cols+j-1]
			if path[i*cols+j-1] {
				v += gapOpen
			}
			if d >= h && d >= v {
				path[i*cols+j] = true
				val[i*cols+j] = d
			} else if v >= h {
				val[i*cols+j] = v
			} else {
				val[i*cols+j] = h
			}
		}
	}
	return val[len1*cols+len2]
}

// With gapOpen = 0 the recurrence is plain Needleman-Wunsch with free
// gaps, which IS exact: DP must equal exhaustive search.
func TestDPMatchesBruteForceFreeGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		len1 := 2 + rng.Intn(5)
		len2 := 2 + rng.Intn(5)
		m := make([]float64, len1*len2)
		for i := range m {
			m[i] = rng.Float64()*2 - 0.5
		}
		score := func(i, j int) float64 { return m[i*len2+j] }
		want := bruteForceBest(len1, len2, score, 0)
		got := dpBest(len1, len2, score, 0)
		if diff := want - got; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: DP=%v brute=%v (len1=%d len2=%d)", trial, got, want, len1, len2)
		}
	}
}

// With gapOpen < 0, TM-align's NWDP_TM is a deliberate single-matrix
// heuristic (the path flag is insufficient state for true affine DP), so
// it may return less than the exhaustive optimum — but never more, since
// every DP traceback corresponds to a real alignment scored by the same
// rule. It must also never lose much: check it reaches the gapless
// diagonal baseline.
func TestDPHeuristicBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		len1 := 2 + rng.Intn(5)
		len2 := 2 + rng.Intn(5)
		m := make([]float64, len1*len2)
		for i := range m {
			m[i] = rng.Float64()*2 - 0.5
		}
		score := func(i, j int) float64 { return m[i*len2+j] }
		gap := -rng.Float64()
		upper := bruteForceBest(len1, len2, score, gap)
		got := dpBest(len1, len2, score, gap)
		if got > upper+1e-9 {
			t.Fatalf("trial %d: DP=%v exceeds exhaustive optimum %v", trial, got, upper)
		}
	}
}

func TestAlignPerfectDiagonal(t *testing.T) {
	// Identity score matrix: the best alignment is the main diagonal.
	n := 10
	a := NewAligner()
	invmap := make([]int, n)
	a.Align(n, n, func(i, j int) float64 {
		if i == j {
			return 1
		}
		return -1
	}, -0.6, invmap, nil)
	for j, i := range invmap {
		if i != j {
			t.Fatalf("invmap[%d] = %d, want diagonal", j, i)
		}
	}
}

func TestAlignProducesMonotonicMap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewAligner()
	for trial := 0; trial < 30; trial++ {
		len1 := 1 + rng.Intn(60)
		len2 := 1 + rng.Intn(60)
		m := make([]float64, len1*len2)
		for i := range m {
			m[i] = rng.Float64()*3 - 1
		}
		invmap := make([]int, len2)
		a.Align(len1, len2, func(i, j int) float64 { return m[i*len2+j] }, -0.6, invmap, nil)
		if !IsMonotonic(invmap, len1) {
			t.Fatalf("trial %d: non-monotonic alignment %v", trial, invmap)
		}
	}
}

func TestAlignChargesOps(t *testing.T) {
	var ops costmodel.Counter
	a := NewAligner()
	invmap := make([]int, 7)
	a.AlignMatrix(5, 7, make([]float64, 35), -1, invmap, &ops)
	if ops.DPCells != 35 {
		t.Errorf("DPCells = %d, want 35", ops.DPCells)
	}
}

func TestAlignInvmapLengthPanic(t *testing.T) {
	defer func() {
		rec := recover()
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrInvmapLength) {
			t.Errorf("panic value %v does not wrap ErrInvmapLength", rec)
		}
	}()
	NewAligner().AlignMatrix(3, 4, make([]float64, 12), -1, make([]int, 3), nil)
}

func TestAlignerReuse(t *testing.T) {
	a := NewAligner()
	inv1 := make([]int, 20)
	a.Align(20, 20, func(i, j int) float64 {
		if i == j {
			return 1
		}
		return 0
	}, -1, inv1, nil)
	// Smaller problem after a larger one must not read stale state.
	inv2 := make([]int, 3)
	a.Align(3, 3, func(i, j int) float64 {
		if i == j {
			return 1
		}
		return 0
	}, -1, inv2, nil)
	for j, i := range inv2 {
		if i != j {
			t.Fatalf("reused aligner produced %v", inv2)
		}
	}
}

func TestAlignSS(t *testing.T) {
	mk := func(s string) []ss.Type {
		out := make([]ss.Type, len(s))
		for i, c := range s {
			switch c {
			case 'H':
				out[i] = ss.Helix
			case 'E':
				out[i] = ss.Strand
			case 'T':
				out[i] = ss.Turn
			default:
				out[i] = ss.Coil
			}
		}
		return out
	}
	sec1 := mk("CCHHHHHHCCEEEECC")
	sec2 := mk("CHHHHHHCCEEEEC")
	a := NewAligner()
	invmap := make([]int, len(sec2))
	a.AlignSS(sec1, sec2, make([]float64, len(sec1)*len(sec2)), invmap, nil)
	if !IsMonotonic(invmap, len(sec1)) {
		t.Fatal("SS alignment not monotonic")
	}
	// The helix blocks must align to each other: count aligned H-H pairs.
	hh := 0
	for j, i := range invmap {
		if i >= 0 && sec1[i] == ss.Helix && sec2[j] == ss.Helix {
			hh++
		}
	}
	if hh < 5 {
		t.Errorf("only %d helix-helix pairs aligned", hh)
	}
}

func TestScoreAndAlignedLen(t *testing.T) {
	invmap := []int{-1, 0, 2, -1, 3}
	if AlignedLen(invmap) != 3 {
		t.Errorf("AlignedLen = %d", AlignedLen(invmap))
	}
	s := Score(invmap, func(i, j int) float64 { return float64(i + j) })
	// pairs: (0,1)=1, (2,2)=4, (3,4)=7 => 12
	if s != 12 {
		t.Errorf("Score = %v, want 12", s)
	}
}

func TestIsMonotonic(t *testing.T) {
	if !IsMonotonic([]int{-1, 0, 1, -1, 5}, 6) {
		t.Error("valid map rejected")
	}
	if IsMonotonic([]int{1, 0}, 2) {
		t.Error("decreasing map accepted")
	}
	if IsMonotonic([]int{0, 0}, 2) {
		t.Error("duplicate map accepted")
	}
	if IsMonotonic([]int{0, 7}, 2) {
		t.Error("out-of-range map accepted")
	}
}

func TestGaplessThreading(t *testing.T) {
	type span struct{ k, lo, hi int }
	var got []span
	GaplessThreading(5, 3, 1, func(k, lo, hi int) {
		got = append(got, span{k, lo, hi})
		if hi-lo < 1 {
			t.Fatalf("empty overlap for k=%d", k)
		}
		for j := lo; j < hi; j++ {
			i := j + k
			if i < 0 || i >= 5 {
				t.Fatalf("k=%d j=%d maps outside chain 1", k, j)
			}
		}
	})
	// Offsets from -(3-1)=-2 to 5-1=4: 7 alignments.
	if len(got) != 7 {
		t.Fatalf("got %d offsets, want 7", len(got))
	}
	// Full-overlap offset k=0..2 must cover all of chain 2.
	for _, s := range got {
		if s.k >= 0 && s.k <= 2 && (s.lo != 0 || s.hi != 3) {
			t.Errorf("offset %d overlap [%d,%d), want full", s.k, s.lo, s.hi)
		}
	}
}

func TestGaplessThreadingMinOverlap(t *testing.T) {
	count := 0
	GaplessThreading(10, 10, 5, func(k, lo, hi int) {
		count++
		if hi-lo < 5 {
			t.Fatalf("overlap %d < minOverlap", hi-lo)
		}
	})
	// k from -5..5 => 11 offsets.
	if count != 11 {
		t.Errorf("count = %d, want 11", count)
	}
}

func BenchmarkAlign150x150(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	n := 150
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64()
	}
	a := NewAligner()
	invmap := make([]int, n)
	score := func(i, j int) float64 { return m[i*n+j] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Align(n, n, score, -0.6, invmap, nil)
	}
}

// mirror returns y as structure-of-arrays, the layout of
// tmalign.Prepared's mirror.
func mirror(y []geom.Vec3) (yx, yy, yz []float64) {
	yx, yy, yz = make([]float64, len(y)), make([]float64, len(y)), make([]float64, len(y))
	for j, p := range y {
		yx[j], yy[j], yz[j] = p[0], p[1], p[2]
	}
	return yx, yy, yz
}

// searchD0 is the d0 of tmscore.SearchParams for chains of at least n
// residues (a kernel import would be a cycle).
func searchD0(n int) float64 {
	if n <= 19 {
		return 0.168 + 0.8
	}
	return 1.24*math.Cbrt(float64(n)-15) - 1.8 + 0.8
}

// overlapRound returns x superposed on y over their gapless overlap, the
// rotated chain of a DP round.
func overlapRound(x, y []geom.Vec3) []geom.Vec3 {
	n := min(len(x), len(y))
	tr, _ := geom.Superpose(x[:n], y[:n])
	xt := make([]geom.Vec3, len(x))
	tr.ApplyAll(xt, x)
	return xt
}

// scoreMatrix is tmalign's fillDistMatrix: the TM terms of xt against
// the mirrored chain, row-major.
func scoreMatrix(xt []geom.Vec3, yx, yy, yz []float64, d02 float64) []float64 {
	n := len(yx)
	mat := make([]float64, len(xt)*n)
	for i, p := range xt {
		geom.ScoreRow(mat[i*n:(i+1)*n], yx, yy, yz, p, d02)
	}
	return mat
}

// BenchmarkAlignMatrix times the DP the TM-align refinement loop runs:
// AlignMatrix on the distance-score matrix of CK34's first pair, with the
// first chain superposed on the second over their gapless overlap and
// the search d0 of tmscore.SearchParams.
func BenchmarkAlignMatrix(b *testing.B) {
	ck := synth.CK34()
	x, y := ck.Structures[0].CAs(), ck.Structures[1].CAs()
	yx, yy, yz := mirror(y)
	d0 := searchD0(min(len(x), len(y)))
	mat := scoreMatrix(overlapRound(x, y), yx, yy, yz, d0*d0)
	a := NewAligner()
	invmap := make([]int, len(y))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AlignMatrix(len(x), len(y), mat, -0.6, invmap, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)*len(y)), "ns/cell")
}

// BenchmarkGapFreeRound times one gap-open-0 round, the shape of every
// initialLocal round and half of dpIter's, on CK34's first pair and on the
// longest RS119 prune survivor (rsh01 vs rsh04, 390 x 390 residues),
// superposed as in BenchmarkAlignMatrix: /fill+align is the score-matrix
// fill plus AlignMatrix(0) the round ran as before, /fused is
// AlignGapFree.
func BenchmarkGapFreeRound(b *testing.B) {
	ck, rs := synth.CK34(), synth.RS119()
	for _, pair := range []struct {
		name string
		x, y []geom.Vec3
	}{
		{"ck34_0_1", ck.Structures[0].CAs(), ck.Structures[1].CAs()},
		{"rs119_70_73", rs.Structures[70].CAs(), rs.Structures[73].CAs()},
	} {
		x, y := pair.x, pair.y
		xt := overlapRound(x, y)
		yx, yy, yz := mirror(y)
		d0 := searchD0(min(len(x), len(y)))
		d02 := d0 * d0
		mat := make([]float64, len(x)*len(y))
		a := NewAligner()
		invmap := make([]int, len(y))
		for _, body := range []struct {
			name string
			run  func()
		}{
			{"fill+align", func() {
				for i, p := range xt {
					geom.ScoreRow(mat[i*len(y):(i+1)*len(y)], yx, yy, yz, p, d02)
				}
				a.AlignMatrix(len(x), len(y), mat, 0, invmap, nil)
			}},
			{"fused", func() { a.AlignGapFree(xt, yx, yy, yz, d02, invmap, nil) }},
		} {
			b.Run(pair.name+"/"+body.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					body.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)*len(y)), "ns/cell")
			})
		}
	}
}

// Align is NWDP_TM's recurrence as written, over a Scorer callback: the
// reference AlignMatrix, AlignGapFree and AlignSS are held to, every DP
// cell and the alignment. A gap costs gapOpen only when the previous
// cell was reached by a match move, and ties prefer the diagonal, then
// the vertical (j-1) move.
func (a *Aligner) Align(len1, len2 int, score Scorer, gapOpen float64, invmap []int, ops *costmodel.Counter) {
	if len(invmap) != len2 {
		panic(fmt.Errorf("%w (Align: %d vs %d)", ErrInvmapLength, len(invmap), len2))
	}
	a.grow(len1, len2)
	cols := a.cols
	val, path := a.val, a.path

	for i := 0; i <= len1; i++ {
		val[i*cols] = 0
		path[i*cols] = false
	}
	for j := 0; j <= len2; j++ {
		val[j] = 0
		path[j] = false
	}

	for i := 1; i <= len1; i++ {
		row := i * cols
		prev := row - cols
		for j := 1; j <= len2; j++ {
			d := val[prev+j-1] + score(i-1, j-1)
			h := val[prev+j]
			if path[prev+j] {
				h += gapOpen
			}
			v := val[row+j-1]
			if path[row+j-1] {
				v += gapOpen
			}
			if d >= h && d >= v {
				path[row+j] = true
				val[row+j] = d
			} else {
				path[row+j] = false
				if v >= h {
					val[row+j] = v
				} else {
					val[row+j] = h
				}
			}
		}
	}
	ops.AddDP(len1 * len2)

	a.traceback(len1, len2, gapOpen, invmap)
}

// Scorer returns the match score for aligning position i of chain 1 with
// position j of chain 2 (0-based).
type Scorer func(i, j int) float64

// Score returns the total DP score of the final alignment stored in
// invmap under the given scorer (gaps score 0, matching NWDP_TM's model
// of free extension after opening; opening penalties are not recomputed).
func Score(invmap []int, score Scorer) float64 {
	var s float64
	for j, i := range invmap {
		if i >= 0 {
			s += score(i, j)
		}
	}
	return s
}
