package tmalign

import (
	"reflect"
	"testing"

	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/pdb"
	"rckalign/internal/synth"
	"rckalign/internal/tmscore"
)

// TestCompareAllocs bounds what one comparison allocates on a warm
// workspace: the Result, its alignment, the context and the secondary
// structure strings — nothing for the search ladder, the pair index or
// the memo tables, which must reach a steady state (a second run of the
// same pair may not allocate more than the first).
func TestCompareAllocs(t *testing.T) {
	ck := synth.CK34()
	a, b := ck.Structures[0], ck.Structures[16]
	x, y, seq1, seq2 := a.CAs(), b.CAs(), a.Sequence(), b.Sequence()
	w := new(kernel.Workspace)
	CompareCAWS(w, x, y, seq1, seq2, DefaultOptions())
	run := func() { CompareCAWS(w, x, y, seq1, seq2, DefaultOptions()) }
	first := testing.AllocsPerRun(1, run)
	second := testing.AllocsPerRun(1, run)
	t.Logf("allocations per warm comparison: %v, then %v", first, second)
	if first > 40 {
		t.Errorf("a warm comparison allocates %v objects, want <= 40", first)
	}
	if second > first {
		t.Errorf("the memo tables have no steady state: %v objects, then %v", first, second)
	}
}

// caTrace is a comparison input without the pdb wrapper.
type caTrace struct {
	ca  []geom.Vec3
	seq string
}

func traceOf(s *pdb.Structure) caTrace { return caTrace{s.CAs(), s.Sequence()} }

func compareOn(w *kernel.Workspace, a, b caTrace) *Result {
	return CompareCAWS(w, a.ca, b.ca, a.seq, b.seq, DefaultOptions())
}

// TestWorkspaceHygiene: whatever a workspace did before — a larger
// pair, a smaller one, a comparison that died between reserving a memo
// slot and filling it — the next comparison on it equals one on a fresh
// workspace in every field, Ops included. TryCompare's recovered kernel
// panics return their pooled workspace in exactly that state.
func TestWorkspaceHygiene(t *testing.T) {
	ck := synth.CK34()
	a1, a2 := traceOf(ck.Structures[0]), traceOf(ck.Structures[1])
	b1, b2 := traceOf(ck.Structures[24]), traceOf(ck.Structures[10])
	wantA := compareOn(new(kernel.Workspace), a1, a2)
	wantB := compareOn(new(kernel.Workspace), b1, b2)

	w := new(kernel.Workspace)
	for i, step := range []struct {
		x, y caTrace
		want *Result
	}{{a1, a2, wantA}, {b1, b2, wantB}, {a1, a2, wantA}, {b2, b1, compareOn(new(kernel.Workspace), b2, b1)}, {a1, a2, wantA}} {
		if got := compareOn(w, step.x, step.y); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("comparison %d on the shared workspace differs from a fresh one:\n got %v %+v\nwant %v %+v", i, got, got.Ops, step.want, step.want.Ops)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the truncated pair buffer did not panic")
			}
		}()
		c := newCtx(w, a1.ca, a2.ca, a1.seq, a2.seq, DefaultOptions())
		inv := w.InvSeed[:c.ylen]
		c.initialGapless(inv)
		c.ytm = c.ytm[:2] // the detailed search reserves its slot, then gathers past this
		c.detailedSearch(inv)
	}()
	if len(w.Searched.Vals) == 0 {
		t.Fatal("the panic left no reserved memo slot behind: the fixture tests nothing")
	}
	if got := compareOn(w, a1, a2); !reflect.DeepEqual(got, wantA) {
		t.Errorf("after a panicked comparison: got %v %+v, want %v %+v", got, got.Ops, wantA, wantA.Ops)
	}
}

// TestFinalizeKeepsUnfilteredAlignment: when fewer than three aligned
// pairs fall inside d8 the final scores are taken over the whole
// alignment — its own pairs, not the half-compacted survivor buffer, and
// identities counted over all of them.
func TestFinalizeKeepsUnfilteredAlignment(t *testing.T) {
	// 3.8 A spacing against 30 A spacing: a fit of three consecutive pairs
	// brings the middle one together and leaves the rest tens of A apart.
	var x, y []geom.Vec3
	for i := 0; i < 6; i++ {
		x = append(x, geom.V(3.8*float64(i), 0, 0))
		y = append(y, geom.V(30*float64(i), 2*float64(i%2), 1.5*float64(i%3)))
	}
	seq := "AAAAAA"
	w := new(kernel.Workspace)
	c := newCtx(w, x, y, seq, seq, DefaultOptions())
	inv := append([]int(nil), c.run()...)
	var xa, ya []geom.Vec3
	for j, i := range inv {
		if i >= 0 {
			xa, ya = append(xa, x[i]), append(ya, y[j])
		}
	}
	_, tr := c.sp.SearchWS(new(kernel.Workspace), xa, ya, 1, nil)
	inside, firstInside := 0, -1
	for k := range xa {
		if tr.Apply(xa[k]).Dist(ya[k]) <= c.sp.ScoreD8 {
			inside++
			if firstInside < 0 {
				firstInside = k
			}
		}
	}
	if len(xa) < 3 || inside == 0 || inside >= 3 || firstInside == 0 {
		t.Fatalf("fixture: %d aligned pairs, %d inside d8 (first at %d); want >= 3 aligned, 1-2 inside, none at the front", len(xa), inside, firstInside)
	}

	r := CompareCAWS(w, x, y, seq, seq, DefaultOptions())
	if !reflect.DeepEqual(r.Invmap, inv) || r.AlignedLen != len(xa) {
		t.Fatalf("alignment %v (%d pairs), want the unfiltered %v (%d)", r.Invmap, r.AlignedLen, inv, len(xa))
	}
	if _, want := geom.Superpose(xa, ya); r.RMSD != want {
		t.Errorf("RMSD %v, want %v over the alignment's own pairs", r.RMSD, want)
	}
	if want, _ := tmscore.FinalParams(6).SearchWS(new(kernel.Workspace), xa, ya, 1, nil); r.TM1 != want || r.TM2 != want {
		t.Errorf("TM %v / %v, want %v over the alignment's own pairs", r.TM1, r.TM2, want)
	}
	if r.SeqID != 1 {
		t.Errorf("SeqID %v, want 1: every aligned pair is A-A", r.SeqID)
	}
}
