package tmalign

import (
	"fmt"
	"math"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/seqalign"
	"rckalign/internal/synth"
)

// poison returns a copy of v with coordinate axis of residue k set to c.
func poison(v []geom.Vec3, k, axis int, c float64) []geom.Vec3 {
	v = append([]geom.Vec3(nil), v...)
	v[k][axis] = c
	return v
}

// TestGapFreeRoundGuard: a gap-open-0 round takes the fused max-plus
// kernel, which never touches Workspace.Mat, only when every coordinate
// on both sides is finite. A NaN or ±Inf coordinate in either chain, or a
// NaN transform, takes the general path, and the round's alignment and
// ops equal that path computed here: the score-matrix fill plus
// AlignMatrix(…, 0, …).
func TestGapFreeRoundGuard(t *testing.T) {
	ck := synth.CK34()
	a, b := ck.Structures[0], ck.Structures[1]
	x, y := a.CAs(), b.CAs()
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		x, y  []geom.Vec3
		nanTr bool
		fused bool
	}{
		{"finite", x, y, false, true},
		{"NaN in x", poison(x, 7, 0, nan), y, false, false},
		{"+Inf in x", poison(x, 3, 1, math.Inf(1)), y, false, false},
		{"-Inf in x", poison(x, 40, 2, math.Inf(-1)), y, false, false},
		{"NaN in y", x, poison(y, 0, 1, nan), false, false},
		{"+Inf in y", x, poison(y, 9, 2, math.Inf(1)), false, false},
		{"NaN transform", x, y, true, false},
	} {
		c := newCtx(new(kernel.Workspace), tc.x, tc.y, a.Sequence(), b.Sequence(), DefaultOptions())
		n := min(c.xlen, c.ylen)
		tr, _ := geom.Superpose(c.x[:n], c.y[:n])
		if tc.nanTr {
			tr = geom.Transform{R: geom.RotX(0.3), T: geom.V(1, nan, 2)}
		}
		xt := c.xt[:c.xlen]
		tr.ApplyAll(xt, c.x)
		for i := range c.scoreMat {
			c.scoreMat[i] = -1 // no term: a fill overwrites every cell
		}
		d02 := c.sp.D0 * c.sp.D0
		got := make([]int, c.ylen)
		c.ops = costmodel.Counter{}
		c.alignRound(xt, d02, 0, got)
		untouched := true
		for _, v := range c.scoreMat {
			untouched = untouched && v == -1
		}
		if untouched != tc.fused {
			t.Fatalf("%s: score matrix untouched (the fused round) %t, want %t", tc.name, untouched, tc.fused)
		}
		want := make([]int, c.ylen)
		var ops costmodel.Counter
		ops.AddScore(c.xlen * c.ylen)
		c.fillDistMatrix(xt, d02, false)
		seqalign.NewAligner().AlignMatrix(c.xlen, c.ylen, c.scoreMat, 0, want, &ops)
		if fmt.Sprint(got) != fmt.Sprint(want) || c.ops != ops {
			t.Errorf("%s: round %v ops %+v, general path %v ops %+v", tc.name, got, c.ops, want, ops)
		}
	}
}

// TestCompareMatchesGeneralPath: CompareCA, whose gap-free rounds run
// the fused kernel wherever the guard allows, returns the same result to
// the last bit as a comparison held on the general path, on CK34 and
// RS119 pairs (the longest RS119 prune survivor among them), and on
// chains with a non-finite coordinate, at three residues and at CK34
// length. Those finish on both paths because a cutoff relaxation that
// no three distances can ever pass, as under a NaN transform, keeps its
// first round instead of relaxing forever (TryCompare rejects such
// chains first).
func TestCompareMatchesGeneralPath(t *testing.T) {
	ck, rs := synth.CK34(), synth.RS119()
	type input struct {
		name       string
		x, y       []geom.Vec3
		seq1, seq2 string
	}
	var inputs []input
	for _, p := range []struct {
		ds   *synth.Dataset
		i, j int
	}{{ck, 0, 1}, {ck, 3, 15}, {ck, 33, 20}, {rs, 70, 73}, {rs, 90, 5}} {
		a, b := p.ds.Structures[p.i], p.ds.Structures[p.j]
		inputs = append(inputs, input{a.ID + "-" + b.ID, a.CAs(), b.CAs(), a.Sequence(), b.Sequence()})
	}
	x := []geom.Vec3{{0, 0, 0}, {3.8, 0, 0}, {7.6, 1, 0.4}}
	y := []geom.Vec3{{1, 0, 0}, {3.8, 2, 0}, {7.6, 1, 0.5}}
	a, b := ck.Structures[0], ck.Structures[1]
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		inputs = append(inputs,
			input{fmt.Sprintf("3 residues, %v in x", c), poison(x, 2, 2, c), y, "AAA", "AAA"},
			input{fmt.Sprintf("3 residues, %v in y", c), x, poison(y, 1, 0, c), "AAA", "AAA"},
			input{fmt.Sprintf("CK34 pair, %v in x", c), poison(a.CAs(), 7, 0, c), b.CAs(), a.Sequence(), b.Sequence()},
			input{fmt.Sprintf("CK34 pair, %v in y", c), a.CAs(), poison(b.CAs(), 3, 1, c), a.Sequence(), b.Sequence()})
	}
	inputs = append(inputs, input{"3 residues, finite", x, y, "AAA", "AAA"})
	for _, in := range inputs {
		r := CompareCA(in.x, in.y, in.seq1, in.seq2, DefaultOptions())
		g := newCtx(new(kernel.Workspace), in.x, in.y, in.seq1, in.seq2, DefaultOptions())
		g.yFinite = false // every gap-free round takes the general path
		want := g.finalize(g.run())
		// %v tells every float64 bit pattern apart but for NaN payloads.
		if fmt.Sprintf("%+v", *r) != fmt.Sprintf("%+v", *want) {
			t.Errorf("%s: CompareCA %+v\nthe general path %+v", in.name, *r, *want)
		}
	}
}
