package tmalign

import (
	"math"
	"reflect"
	"testing"

	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/synth"
)

// fuzzChain turns bytes into a CA trace: each byte picks the direction
// of the next 3.8 A step (so helices, strands, hairpins and straight
// runs all occur) and the residue type; a byte above 250 jumps 40 A,
// a chain break. Coordinates stay within a few hundred A, as in a PDB
// file; the cutoff relaxations cost the same few passes at any spread.
func fuzzChain(id string, data []byte) *pdb.Structure {
	if len(data) > 96 {
		data = data[:96]
	}
	st := &pdb.Structure{ID: id, Chain: 'A'}
	cur := geom.V(0, 0, 0)
	for i, b := range data {
		a, e := float64(b&15)*0.4, float64(b>>4&7)*0.25-0.8
		step := 3.8
		if b > 250 {
			step = 40
		}
		cur = cur.Add(geom.V(math.Cos(a)*math.Cos(e), math.Sin(a)*math.Cos(e), math.Sin(e)).Scale(step))
		aa := "ACDEFGHIKLMNPQRSTVWY"[int(b)%20]
		st.Residues = append(st.Residues, pdb.Residue{Seq: i + 1, Name: pdb.ThreeLetter(aa), AA: aa, CA: cur})
	}
	return st
}

// FuzzCompare holds the whole kernel, through its error boundary, to the
// invariants that are true of every input rather than of typical ones:
// no panic, scores finite in [0, 1], a monotonic alignment no longer
// than the shorter chain, a perfect self-comparison, and determinism to
// the last bit and op.
func FuzzCompare(f *testing.F) {
	f.Add([]byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"), []byte("MKTAYIAKQRQISFVKSHFSRQ"), true)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{9, 200, 9, 200, 9, 200, 9, 200}, false)
	f.Add([]byte{0, 255, 7}, []byte{3, 3, 3, 3, 3, 3, 3, 251, 3, 3, 3, 3, 3, 3}, false)
	f.Add([]byte{5, 5}, []byte{5, 5, 5, 5}, true)
	f.Fuzz(func(t *testing.T, d1, d2 []byte, fast bool) {
		s1, s2 := fuzzChain("a", d1), fuzzChain("b", d2)
		opt := DefaultOptions()
		if fast {
			opt = FastOptions()
		}
		r, err := TryCompare(s1, s2, opt)
		if err != nil {
			if (s1.Len() < 3 || s2.Len() < 3) && IsKernelError(err) {
				return
			}
			t.Fatalf("TryCompare on valid chains of %d and %d residues: %v", s1.Len(), s2.Len(), err)
		}
		for _, tm := range []float64{r.TM1, r.TM2} {
			if math.IsNaN(tm) || tm < 0 || tm > 1 {
				t.Fatalf("TM1 %v, TM2 %v: outside [0, 1]", r.TM1, r.TM2)
			}
		}
		if math.IsNaN(r.RMSD) || r.RMSD < 0 {
			t.Fatalf("RMSD %v", r.RMSD)
		}
		if !seqalign.IsMonotonic(r.Invmap, s1.Len()) {
			t.Fatalf("alignment %v is not monotonic", r.Invmap)
		}
		if r.AlignedLen > min(s1.Len(), s2.Len()) || r.AlignedLen != seqalign.AlignedLen(r.Invmap) {
			t.Fatalf("AlignedLen %d with chains of %d and %d and alignment %v", r.AlignedLen, s1.Len(), s2.Len(), r.Invmap)
		}
		if again, _ := TryCompare(s1, s2, opt); !reflect.DeepEqual(r, again) {
			t.Fatalf("two calls differ:\n%v %+v\n%v %+v", r, r.Ops, again, again.Ops)
		}
		self, err := TryCompare(s1, s1, opt)
		if err != nil || self.TM1 < 0.9999 || self.TM2 < 0.9999 || self.RMSD > 1e-6 {
			t.Fatalf("self-comparison of %d residues: %v, %v", s1.Len(), self, err)
		}
	})
}

// ck34Sample is 16 CK34 pairs spread over within-family, cross-family
// and very different-length cases.
func ck34Sample() (ds *synth.Dataset, pairs [][2]int) {
	ds = synth.CK34()
	for k := 0; k < 16; k++ {
		i := (k * 7) % ds.Len()
		j := (i + 1 + (k*k)%(ds.Len()-1)) % ds.Len()
		pairs = append(pairs, [2]int{i, j})
	}
	return ds, pairs
}

// The two properties below are properties of a heuristic, so they hold
// within a tolerance and are table tests, not fuzz invariants: moving a
// chain changes every rounding, and the first argument is the one that
// is rotated, threaded and fragmented, so a swapped comparison explores
// different initial alignments. Observed on the sample (DESIGN.md §17):
// 5e-16 under rigid motions, 0.045 under a swap.
const (
	rigidMotionTolerance = 1e-9
	swapTolerance        = 0.05
)

func TestRigidMotionInvarianceCK34(t *testing.T) {
	ds, pairs := ck34Sample()
	motions := []geom.Transform{
		{R: geom.RotX(0.7), T: geom.V(12, -30, 4)},
		{R: geom.RotY(2.1).Mul(geom.RotX(-1.3)), T: geom.V(-55, 8, 19)},
	}
	worst := 0.0
	for _, p := range pairs {
		a, b := ds.Structures[p[0]], ds.Structures[p[1]]
		want := Compare(a, b, DefaultOptions())
		for m, g := range motions {
			moved := a.Clone()
			if m == 1 {
				moved = b.Clone()
			}
			for i := range moved.Residues {
				moved.Residues[i].CA = g.Apply(moved.Residues[i].CA)
			}
			got := Compare(moved, b, DefaultOptions())
			if m == 1 {
				got = Compare(a, moved, DefaultOptions())
			}
			worst = math.Max(worst, math.Max(math.Abs(got.TM1-want.TM1), math.Abs(got.TM2-want.TM2)))
		}
	}
	t.Logf("largest TM change under a rigid motion of either chain: %.3g", worst)
	if worst > rigidMotionTolerance {
		t.Errorf("a rigid motion moved a TM-score by %.3g, tolerance %.3g", worst, rigidMotionTolerance)
	}
}

func TestArgumentSwapExchangesTMCK34(t *testing.T) {
	ds, pairs := ck34Sample()
	worst := 0.0
	for _, p := range pairs {
		a, b := ds.Structures[p[0]], ds.Structures[p[1]]
		ab, ba := Compare(a, b, DefaultOptions()), Compare(b, a, DefaultOptions())
		worst = math.Max(worst, math.Max(math.Abs(ab.TM1-ba.TM2), math.Abs(ab.TM2-ba.TM1)))
	}
	t.Logf("largest |TM1(a,b) - TM2(b,a)|: %.3g", worst)
	if worst > swapTolerance {
		t.Errorf("swapping the arguments moved a TM-score by %.3g, tolerance %.3g", worst, swapTolerance)
	}
}
