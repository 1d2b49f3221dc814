package geom_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// The gap-free rounds' portable body is what an amd64 without AVX2 runs.
// These tests hold it, under geom.ForcePortable, to what the seqalign
// and tmalign tests hold the dispatched kernel to, so the fallback is
// tested on amd64 too, not only under GOARCH=386.

// searchD0 is the d0 of tmscore.SearchParams for chains of at least n
// residues.
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

type gapFreePair struct {
	name string
	x, y *pdb.Structure
}

// gapFreePairs are CK34 pairs and the longest RS119 prune survivor (rsh01
// vs rsh04, 390 x 390 residues).
func gapFreePairs() []gapFreePair {
	ck, rs := synth.CK34(), synth.RS119()
	return []gapFreePair{
		{"ck34_0_1", ck.Structures[0], ck.Structures[1]},
		{"ck34_3_15", ck.Structures[3], ck.Structures[15]},
		{"ck34_33_20", ck.Structures[33], ck.Structures[20]},
		{"rs119_70_73", rs.Structures[70], rs.Structures[73]},
		{"rs119_90_5", rs.Structures[90], rs.Structures[5]},
	}
}

// gapFreeRound is one gap-open-0 round both ways: AlignGapFree, and
// AlignMatrix(…, 0, …) on the ScoreRow matrix.
type gapFreeRound struct {
	xt, y        []geom.Vec3
	yx, yy, yz   []float64
	yq, mat      []float64
	d02          float64
	fused, plain *seqalign.Aligner
}

func newGapFreeRound(xt, y []geom.Vec3, d02 float64) *gapFreeRound {
	r := &gapFreeRound{xt: xt, y: y, d02: d02, mat: make([]float64, len(xt)*len(y)),
		yx: make([]float64, len(y)), yy: make([]float64, len(y)), yz: make([]float64, len(y)),
		yq: geom.QuadMirror(make([]float64, 12*(len(y)+6)+3), y), fused: seqalign.NewAligner(), plain: seqalign.NewAligner()}
	for j, p := range y {
		r.yx[j], r.yy[j], r.yz[j] = p[0], p[1], p[2]
	}
	return r
}

// terms fills the score matrix, the cost of the terms alone.
func (r *gapFreeRound) terms() {
	n := len(r.y)
	for i, p := range r.xt {
		geom.ScoreRow(r.mat[i*n:(i+1)*n], r.yx, r.yy, r.yz, p, r.d02)
	}
}

func (r *gapFreeRound) run(fused bool, invmap []int, ops *costmodel.Counter) {
	if fused {
		r.fused.AlignGapFree(r.xt, r.yq, r.d02, invmap, ops)
		return
	}
	r.terms()
	r.plain.AlignMatrix(len(r.xt), len(r.y), r.mat, 0, invmap, ops)
}

// TestPortableGapFreeRounds: AlignGapFree on the portable body leaves
// the alignment and DP charge of the score-matrix fill plus
// AlignMatrix(…, 0, …), as seqalign's TestAlignGapFreeMatchesAlignMatrix
// requires of the dispatched kernel, on overlap, fragment and random
// rounds of CK34 and RS119 pairs.
func TestPortableGapFreeRounds(t *testing.T) {
	geom.ForcePortable(t)
	rng := rand.New(rand.NewSource(28))
	for _, p := range gapFreePairs() {
		x, y := p.x.CAs(), p.y.CAs()
		d0 := searchD0(min(len(x), len(y)))
		check := func(what string, xt []geom.Vec3, d02 float64) {
			t.Helper()
			r := newGapFreeRound(xt, y, d02)
			got, want := make([]int, len(y)), make([]int, len(y))
			var gotOps, wantOps costmodel.Counter
			r.run(true, got, &gotOps)
			r.run(false, want, &wantOps)
			if fmt.Sprint(got) != fmt.Sprint(want) || gotOps != wantOps {
				t.Fatalf("%s %s: portable round %v ops %+v, AlignMatrix %v ops %+v", p.name, what, got, gotOps, want, wantOps)
			}
		}
		check("overlap", overlapRound(x, y), d0*d0)
		const frag = 20
		xt := make([]geom.Vec3, len(x))
		for i := 0; i+frag <= len(x); i += 3 * frag {
			for j := 0; j+frag <= len(y); j += 2 * frag {
				tr, _ := geom.Superpose(x[i:i+frag], y[j:j+frag])
				tr.ApplyAll(xt, x)
				check(fmt.Sprintf("fragments %d-%d", i, j), xt, (d0+1.5)*(d0+1.5))
			}
		}
		tr := geom.Transform{R: geom.RotY(rng.Float64() * 6.3).Mul(geom.RotX(rng.Float64() * 6.3)),
			T: geom.V(rng.NormFloat64()*20, rng.NormFloat64()*20, rng.NormFloat64()*20)}
		tr.ApplyAll(xt, x)
		check("random motion", xt, d0*d0)
	}
}

// TestPortableCompare: whole comparisons on the portable body equal the
// dispatched kernel's to the last bit, which tmalign's
// TestCompareMatchesGeneralPath and TestGapFreeRoundGuard hold to the
// general path, on the same pairs and on chains whose NaN or ±Inf
// coordinate keeps every round off the fused kernel.
func TestPortableCompare(t *testing.T) {
	x := []geom.Vec3{{0, 0, 0}, {3.8, 0, 0}, {7.6, 1, 0.4}}
	y := []geom.Vec3{{1, 0, 0}, {3.8, 2, 0}, {7.6, 1, 0.5}}
	inputs := [][2]*pdb.Structure{{pdb.FromCAs("x", x, "AAA"), pdb.FromCAs("y", y, "AAA")}}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]geom.Vec3(nil), x...)
		bad[2][2] = c
		inputs = append(inputs, [2]*pdb.Structure{pdb.FromCAs("x", bad, "AAA"), pdb.FromCAs("y", y, "AAA")})
	}
	for _, p := range gapFreePairs() {
		inputs = append(inputs, [2]*pdb.Structure{p.x, p.y})
	}
	want := make([]string, len(inputs))
	for k, in := range inputs {
		want[k] = fmt.Sprintf("%+v", *tmalign.ComparePrepared(tmalign.Prepare(in[0]), tmalign.Prepare(in[1]), tmalign.DefaultOptions()))
	}
	geom.ForcePortable(t)
	for k, in := range inputs {
		// %v tells every float64 bit pattern apart but for NaN payloads.
		if got := fmt.Sprintf("%+v", *tmalign.ComparePrepared(tmalign.Prepare(in[0]), tmalign.Prepare(in[1]), tmalign.DefaultOptions())); got != want[k] {
			t.Errorf("%s-%s: portable %s\ndispatched %s", in[0].ID, in[1].ID, got, want[k])
		}
	}
}

// BenchmarkGapFreeRound times one gap-open-0 round, the shape of every
// initialLocal round and half of dpIter's, on CK34's first pair and on
// the longest RS119 prune survivor, the first chain superposed on the
// second over their gapless overlap at the search d0: /fill+align is the
// score-matrix fill plus AlignMatrix(0) the round ran before fusion,
// /fused is AlignGapFree on the kernel this CPU dispatches to, /go is
// AlignGapFree on the portable body (what an amd64 without AVX2 runs),
// and /terms is the score-matrix fill alone, the cost of the terms
// without the recurrence.
func BenchmarkGapFreeRound(b *testing.B) {
	for _, p := range gapFreePairs() {
		if p.name != "ck34_0_1" && p.name != "rs119_70_73" {
			continue
		}
		x, y := p.x.CAs(), p.y.CAs()
		d0 := searchD0(min(len(x), len(y)))
		r := newGapFreeRound(overlapRound(x, y), y, d0*d0)
		invmap := make([]int, len(y))
		for _, body := range []struct {
			name     string
			portable bool
			run      func()
		}{
			{"fill+align", false, func() { r.run(false, invmap, nil) }},
			{"fused", false, func() { r.run(true, invmap, nil) }},
			{"go", true, func() { r.run(true, invmap, nil) }},
			{"terms", false, r.terms},
		} {
			b.Run(p.name+"/"+body.name, func(b *testing.B) {
				if body.portable {
					geom.ForcePortable(b)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					body.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)*len(y)), "ns/cell")
			})
		}
	}
}
