package tmalign

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/synth"
	"rckalign/internal/tmscore"
)

// synthStructure builds a CA-like random-walk chain.
func synthStructure(id string, n int, seed int64) *pdb.Structure {
	rng := rand.New(rand.NewSource(seed))
	st := &pdb.Structure{ID: id, Chain: 'A'}
	cur := geom.V(0, 0, 0)
	for i := 0; i < n; i++ {
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Unit()
		cur = cur.Add(dir.Scale(3.8))
		st.Residues = append(st.Residues, pdb.Residue{Seq: i + 1, Name: "ALA", AA: 'A', CA: cur})
	}
	return st
}

func TestValidateStructure(t *testing.T) {
	if err := ValidateStructure(synthStructure("ok", 20, 1)); err != nil {
		t.Errorf("valid structure rejected: %v", err)
	}
	short := synthStructure("short", 2, 2)
	if err := ValidateStructure(short); !errors.Is(err, ErrDegenerateStructure) {
		t.Errorf("2-residue structure: err = %v, want ErrDegenerateStructure", err)
	}
	nan := synthStructure("nan", 10, 3)
	nan.Residues[4].CA[1] = math.NaN()
	if err := ValidateStructure(nan); !errors.Is(err, ErrDegenerateStructure) {
		t.Errorf("NaN coordinate: err = %v, want ErrDegenerateStructure", err)
	}
	inf := synthStructure("inf", 10, 4)
	inf.Residues[0].CA[2] = math.Inf(1)
	if err := ValidateStructure(inf); !errors.Is(err, ErrDegenerateStructure) {
		t.Errorf("Inf coordinate: err = %v, want ErrDegenerateStructure", err)
	}
	// The bound is the PDB column's: its widest value passes, the next
	// representable one does not, either sign.
	edge := synthStructure("edge", 10, 5)
	edge.Residues[3].CA[0], edge.Residues[4].CA[1] = maxCoordinate, -maxCoordinate
	if err := ValidateStructure(edge); err != nil {
		t.Errorf("coordinates at ±%v rejected: %v", maxCoordinate, err)
	}
	edge.Residues[4].CA[1] = -math.Nextafter(maxCoordinate, math.Inf(1))
	if err := ValidateStructure(edge); !errors.Is(err, ErrDegenerateStructure) {
		t.Errorf("coordinate past -%v: err = %v, want ErrDegenerateStructure", maxCoordinate, err)
	}
}

// TestTryCompareRejectsHugeCoordinate: a CK34 chain with one CA at a
// finite 1e200 used to hang TryCompare, whose scoring passes relax their
// cutoff until three pairs come within it. It is rejected at once.
func TestTryCompareRejectsHugeCoordinate(t *testing.T) {
	ds := synth.CK34()
	huge := ds.Structures[1].Clone()
	huge.Residues[7].CA[0] = 1e200
	done := make(chan error, 1)
	go func() {
		_, err := TryCompare(ds.Structures[0], huge, DefaultOptions())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDegenerateStructure) {
			t.Errorf("err = %v, want ErrDegenerateStructure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TryCompare with a 1e200 coordinate did not return")
	}
}

func TestIsKernelError(t *testing.T) {
	for _, s := range []error{
		ErrDegenerateStructure,
		geom.ErrPointMismatch, geom.ErrNoPoints,
		tmscore.ErrAlignedLength, seqalign.ErrInvmapLength,
	} {
		if !IsKernelError(s) {
			t.Errorf("sentinel %v not recognised as a kernel error", s)
		}
		// Wrapped forms — how the kernels actually panic.
		if !IsKernelError(errorsWrap(s)) {
			t.Errorf("wrapped sentinel %v not recognised", s)
		}
	}
	if IsKernelError(errors.New("disk on fire")) {
		t.Error("arbitrary error classified as a kernel error")
	}
	if IsKernelError(nil) {
		t.Error("nil classified as a kernel error")
	}
}

func errorsWrap(err error) error { return &wrapped{err} }

type wrapped struct{ inner error }

func (w *wrapped) Error() string { return "ctx: " + w.inner.Error() }
func (w *wrapped) Unwrap() error { return w.inner }

// TestTryCompareMatchesCompare: on valid input the boundary is
// transparent — bit-identical result, nil error.
func TestTryCompareMatchesCompare(t *testing.T) {
	a := synthStructure("a", 40, 7)
	b := synthStructure("b", 35, 8)
	opt := FastOptions()
	want := Compare(a, b, opt)
	got, err := TryCompare(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TryCompare result differs from Compare:\n%v\n%v", got, want)
	}
}

func TestTryCompareRejectsDegenerate(t *testing.T) {
	good := synthStructure("good", 30, 9)
	nan := synthStructure("bad", 30, 10)
	nan.Residues[12].CA[0] = math.NaN()
	for _, pair := range [][2]*pdb.Structure{{nan, good}, {good, nan}} {
		r, err := TryCompare(pair[0], pair[1], DefaultOptions())
		if r != nil || !errors.Is(err, ErrDegenerateStructure) {
			t.Errorf("TryCompare(%s, %s) = %v, %v; want nil, ErrDegenerateStructure",
				pair[0].ID, pair[1].ID, r, err)
		}
		if !IsKernelError(err) {
			t.Errorf("degenerate-input error %v not classified as kernel error", err)
		}
	}
}

// TestTryCompareMinimumChain drives the full kernel at the smallest
// input ValidateStructure admits (3 residues): the seed ladder, the DP
// refinement and the final scoring must all cope with chains shorter
// than every initial-alignment fragment length, under both kernel
// profiles and for asymmetric length combinations.
func TestTryCompareMinimumChain(t *testing.T) {
	tiny := synthStructure("tiny", 3, 11)
	small := synthStructure("small", 5, 12)
	big := synthStructure("big", 60, 13)
	for _, opt := range []Options{DefaultOptions(), FastOptions()} {
		for _, pair := range [][2]*pdb.Structure{{tiny, tiny}, {tiny, small}, {tiny, big}, {big, tiny}} {
			r, err := TryCompare(pair[0], pair[1], opt)
			if err != nil {
				t.Fatalf("TryCompare(%s, %s): %v", pair[0].ID, pair[1].ID, err)
			}
			if r.TM1 < 0 || r.TM1 > 1+1e-9 || r.TM2 < 0 || r.TM2 > 1+1e-9 {
				t.Errorf("TryCompare(%s, %s): TM out of range: %v / %v",
					pair[0].ID, pair[1].ID, r.TM1, r.TM2)
			}
			if !seqalign.IsMonotonic(r.Invmap, r.Len1) {
				t.Errorf("TryCompare(%s, %s): non-monotonic invmap", pair[0].ID, pair[1].ID)
			}
		}
	}
	// Self comparison of the minimal chain is a perfect match.
	r, err := TryCompare(tiny, tiny, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.TM1 < 0.99 || r.AlignedLen != 3 {
		t.Errorf("3-residue self comparison: TM1 %v aligned %d, want ~1 and 3", r.TM1, r.AlignedLen)
	}
}

// TestTryCompareRepanicsOnBugs: a panic that does not wrap a kernel
// sentinel must escape the boundary — masking genuine bugs as input
// errors would hide real defects.
func TestTryCompareRepanicsOnBugs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-kernel panic was swallowed")
		}
	}()
	func() {
		defer recoverKernel("x", "y", new(error))
		panic(errors.New("genuine bug"))
	}()
}

// TestTryCompareFarApartCloudsFinishes: two random 40-residue clouds
// spread over ±9999 A, the widest coordinates ValidateStructure admits,
// leave almost no pair within any cutoff, so every scoring pass relaxes
// its cutoff over hundreds of millions of 0.5 A² rounds. Those rounds
// are stepped in closed form rather than scanned, so the comparison
// finishes within a second.
func TestTryCompareFarApartCloudsFinishes(t *testing.T) {
	cloud := func(id string, seed int64) *pdb.Structure {
		rng := rand.New(rand.NewSource(seed))
		st := &pdb.Structure{ID: id, Chain: 'A'}
		for i := 0; i < 40; i++ {
			ca := geom.V(rng.Float64()*19998-9999, rng.Float64()*19998-9999, rng.Float64()*19998-9999)
			st.Residues = append(st.Residues, pdb.Residue{Seq: i + 1, Name: "ALA", AA: 'A', CA: ca})
		}
		return st
	}
	a, b := cloud("a", 1), cloud("b", 2)
	type outcome struct {
		r   *Result
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		r, err := TryCompare(a, b, DefaultOptions())
		done <- outcome{r, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !(o.r.TM1 >= 0 && o.r.TM1 <= 1 && o.r.TM2 >= 0 && o.r.TM2 <= 1) {
			t.Errorf("TM1 %v TM2 %v outside [0, 1]", o.r.TM1, o.r.TM2)
		}
		t.Logf("finished in %v, %d score evaluations charged", time.Since(start), o.r.Ops.ScoreEvals)
	case <-time.After(time.Second):
		t.Fatal("TryCompare of two far-apart clouds did not finish within 1 s")
	}
}
