// External test package: the exhaustive calibration tests compute true
// TM-scores through internal/core (which itself imports prune), so they
// must live outside package prune to avoid an import cycle.
package prune_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/pairstore"
	"rckalign/internal/prune"
	"rckalign/internal/sched"
	"rckalign/internal/ss"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// flatFeatures builds Features for an artificial chain of n residues of
// a single secondary-structure class with the given sequence.
func flatFeatures(n int, class ss.Type, seq string) prune.Features {
	sec := make([]ss.Type, n)
	for i := range sec {
		sec[i] = class
	}
	return prune.FromSec(sec, seq)
}

func TestBoundDegenerateInputs(t *testing.T) {
	f := prune.New(0.5)
	empty := prune.FromSec(nil, "")
	some := flatFeatures(10, ss.Helix, "AAAAAAAAAA")
	if b := f.Bound(&empty, &empty); b != 0 {
		t.Errorf("Bound(empty, empty) = %v, want 0", b)
	}
	if b := f.Bound(&empty, &some); b != 0 {
		t.Errorf("Bound(empty, some) = %v, want 0", b)
	}
	if b := f.Bound(&some, &empty); b != 0 {
		t.Errorf("Bound(some, empty) = %v, want 0", b)
	}
}

func TestBoundLengthCap(t *testing.T) {
	// Identical composition and sequence: only the provable length cap
	// applies. 40 vs 120 residues: (40/120 + 1)/2 = 2/3.
	f := prune.New(0.5)
	a := flatFeatures(40, ss.Helix, strings.Repeat("A", 40))
	b := flatFeatures(120, ss.Helix, strings.Repeat("A", 120))
	want := (40.0/120.0 + 1) / 2
	if got := f.Bound(&a, &b); got != want {
		t.Errorf("length-cap bound = %v, want %v", got, want)
	}
	// Symmetric.
	if got := f.Bound(&b, &a); got != want {
		t.Errorf("length-cap bound (swapped) = %v, want %v", got, want)
	}
}

func TestBoundMissingSequenceDisablesSeqCap(t *testing.T) {
	// Same length and composition, totally dissimilar sequences: the
	// sequence cap fires (bound = the calibrated floor 0.35) — but only
	// when both sequences cover the full chain.
	n := 50
	withA := flatFeatures(n, ss.Helix, strings.Repeat("A", n))
	withG := flatFeatures(n, ss.Helix, strings.Repeat("G", n))
	f := prune.New(0.5)
	if got := f.Bound(&withA, &withG); got != 0.35 {
		t.Errorf("dissimilar-sequence bound = %v, want the 0.35 cap floor", got)
	}
	// Blank out one sequence: no sequence information, no sequence cap.
	noSeq := withG
	noSeq.Seq = ""
	if got := f.Bound(&withA, &noSeq); got != 1 {
		t.Errorf("missing-sequence bound = %v, want 1 (cap disabled)", got)
	}
	// A truncated sequence (shorter than the chain) must also disable the
	// cap rather than produce a spuriously low similarity.
	trunc := withG
	trunc.Seq = trunc.Seq[:n-1]
	if got := f.Bound(&withA, &trunc); got != 1 {
		t.Errorf("truncated-sequence bound = %v, want 1 (cap disabled)", got)
	}
}

func TestBoundCompositionCap(t *testing.T) {
	// All-helix vs all-strand, no sequences: composition distance is 1,
	// far above the knee, so the calibrated floor applies.
	a := flatFeatures(60, ss.Helix, "")
	b := flatFeatures(60, ss.Strand, "")
	f := prune.New(0.5)
	if got := f.Bound(&a, &b); got != 0.35 {
		t.Errorf("opposite-composition bound = %v, want the 0.35 cap floor", got)
	}
	// Identical composition: the cap contributes nothing (bound stays at
	// the length cap, 1 for equal lengths).
	if got := f.Bound(&a, &a); got != 1 {
		t.Errorf("identical-composition bound = %v, want 1", got)
	}
}

func TestSkipReportAccounting(t *testing.T) {
	f := prune.New(0.5)
	if f.Report.Threshold != 0.5 {
		t.Errorf("fresh filter reports threshold %v, want 0.5 before any Skip", f.Report.Threshold)
	}
	a := flatFeatures(40, ss.Helix, strings.Repeat("A", 40))   // vs b: length cap 2/3, kept
	b := flatFeatures(120, ss.Helix, strings.Repeat("A", 120)) // vs g: seq cap 0.35, skipped
	g := flatFeatures(120, ss.Helix, strings.Repeat("G", 120))
	if f.Skip(&a, &b) {
		t.Error("Skip(a, b) = true, want false (bound 2/3 >= 0.5)")
	}
	if !f.Skip(&b, &g) {
		t.Error("Skip(b, g) = false, want true (bound 0.35 < 0.5)")
	}
	r := f.Report
	if r.Threshold != 0.5 || r.Total != 2 || r.Skipped != 1 {
		t.Errorf("report = %+v, want threshold 0.5, total 2, skipped 1", r)
	}
	sum := 0
	for _, c := range r.BoundHist {
		sum += c
	}
	if sum != r.Total {
		t.Errorf("BoundHist sums to %d, want Total = %d", sum, r.Total)
	}
	if r.BoundHist[6] != 1 || r.BoundHist[3] != 1 {
		t.Errorf("BoundHist = %v, want one pair in [0.6,0.7) and one in [0.3,0.4)", r.BoundHist)
	}
	const wantCells = 3*40*120 + 3*120*120
	if r.DPCells != wantCells {
		t.Errorf("DPCells = %d, want %d (three states per cell of both sequence DPs)", r.DPCells, wantCells)
	}
	if got := r.SkipFraction(); got != 0.5 {
		t.Errorf("SkipFraction = %v, want 0.5", got)
	}

	// A pair the composition cap has already floored is decided without
	// the sequence DP: counted, skipped, and no cells billed.
	e := flatFeatures(120, ss.Strand, strings.Repeat("A", 120))
	if !f.Skip(&b, &e) {
		t.Error("Skip(b, e) = false, want true (opposite composition, bound 0.35)")
	}
	if r = f.Report; r.Total != 3 || r.Skipped != 2 || r.BoundHist[3] != 2 || r.DPCells != wantCells {
		t.Errorf("after a floored pair: report %+v, want total 3, skipped 2, two pairs in [0.3,0.4), still %d cells", r, wantCells)
	}

	// Add sums everything but the threshold.
	twice := prune.New(0.5).Report
	twice.Add(&r)
	twice.Add(&r)
	want := r
	want.Total, want.Skipped, want.DPCells = 2*r.Total, 2*r.Skipped, 2*r.DPCells
	for k := range want.BoundHist {
		want.BoundHist[k] *= 2
	}
	if twice != want {
		t.Errorf("Add: got %+v, want %+v", twice, want)
	}
}

// TestAffineChargesOps: the filter bills three DP states per cell of
// the sequence DP it runs, and nothing for a pair it short-circuits.
func TestAffineChargesOps(t *testing.T) {
	a, b := flatFeatures(5, ss.Helix, "AAAAA"), flatFeatures(4, ss.Helix, "AAAA")
	f := prune.New(0.5)
	f.Bound(&a, &b)
	if f.Ops.DPCells != 60 { // 3 states x 20 cells
		t.Errorf("DPCells = %d, want 60", f.Ops.DPCells)
	}
	// Opposite composition floors the bound before the sequence cap.
	c := flatFeatures(4, ss.Strand, "AAAA")
	if got := f.Bound(&a, &c); got != 0.35 {
		t.Fatalf("opposite-composition bound = %v, want the 0.35 cap floor", got)
	}
	if f.Ops.DPCells != 60 {
		t.Errorf("DPCells = %d after a floored pair, want still 60", f.Ops.DPCells)
	}
}

// TestBoundWarmNoAllocs: a filter that has seen its longest chain owns
// all the scratch it needs; scratch is per filter, never per pair.
func TestBoundWarmNoAllocs(t *testing.T) {
	f := prune.New(0.5)
	a := flatFeatures(150, ss.Helix, strings.Repeat("ACDE", 40))
	b := flatFeatures(120, ss.Helix, strings.Repeat("ADCG", 30))
	f.Bound(&b, &a)
	if allocs := testing.AllocsPerRun(10, func() { f.Skip(&a, &b); f.Skip(&b, &a) }); allocs != 0 {
		t.Errorf("warm Skip: %.1f allocs/run, want 0", allocs)
	}
}

func TestPrunePairsPreservesOrder(t *testing.T) {
	ds := synth.CK34()
	kept, rep := core.PrunePairs(ds, 0.5)
	all := sched.AllVsAll(ds.Len())
	if rep.Total != len(all) {
		t.Fatalf("report total = %d, want %d", rep.Total, len(all))
	}
	if len(kept)+rep.Skipped != rep.Total {
		t.Errorf("kept %d + skipped %d != total %d", len(kept), rep.Skipped, rep.Total)
	}
	// Survivors appear in canonical all-vs-all order.
	pos := make(map[sched.Pair]int, len(all))
	for k, p := range all {
		pos[p] = k
	}
	last := -1
	for _, p := range kept {
		k, ok := pos[p]
		if !ok {
			t.Fatalf("kept pair %v not in the all-vs-all list", p)
		}
		if k <= last {
			t.Fatalf("kept pairs out of canonical order at %v", p)
		}
		last = k
	}
	// Threshold 0 disables pruning entirely.
	keptAll, repAll := core.PrunePairs(ds, 0)
	if len(keptAll) != len(all) || repAll.Skipped != 0 {
		t.Errorf("threshold 0: kept %d skipped %d, want all %d kept", len(keptAll), repAll.Skipped, len(all))
	}
	// A dataset with no pairs still reports the threshold it was asked for.
	one := &synth.Dataset{Name: "one", Structures: ds.Structures[:1]}
	if keptOne, repOne := core.PrunePairs(one, 0.5); len(keptOne) != 0 || repOne.Threshold != 0.5 || repOne.Total != 0 {
		t.Errorf("one structure: kept %d, report %+v, want nothing kept at threshold 0.5", len(keptOne), repOne)
	}

	// The pairs are decided on GOMAXPROCS goroutines; the survivors, their
	// order and the whole report must not depend on how many.
	rs := synth.RS119()
	var wantKept []sched.Pair
	var wantRep *prune.Report
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		gotKept, gotRep := core.PrunePairs(rs, 0.5)
		runtime.GOMAXPROCS(prev)
		if wantRep == nil {
			wantKept, wantRep = gotKept, gotRep
			continue
		}
		if !reflect.DeepEqual(gotKept, wantKept) || !reflect.DeepEqual(gotRep, wantRep) {
			t.Errorf("GOMAXPROCS=%d: %d survivors, report %+v; at GOMAXPROCS=1 %d survivors, report %+v",
				procs, len(gotKept), gotRep, len(wantKept), wantRep)
		}
	}
	if len(wantKept) != 373 {
		t.Errorf("RS119 at 0.5: %d survivors, want golden 373", len(wantKept))
	}
}

// TestCK34BoundNeverUnderestimates is the central safety property: for
// every CK34 pair, under both the default and the fast kernel, the
// pre-filter bound is >= the true mean TM-score. This single invariant
// implies zero misclassifications at EVERY threshold (if bound < T then
// trueTM <= bound < T), which the sweep below then spells out.
func TestCK34BoundNeverUnderestimates(t *testing.T) {
	if testing.Short() {
		t.Skip("computes all 561 CK34 pairs under two kernels")
	}
	ds := synth.CK34()
	feats := make([]prune.Features, ds.Len())
	for i, s := range ds.Structures {
		feats[i] = prune.Extract(s.CAs(), s.Sequence())
	}

	kernels := []struct {
		name string
		opt  tmalign.Options
	}{
		{"default", tmalign.DefaultOptions()},
		{"fast", tmalign.FastOptions()},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			pr := core.ComputeAllPairsShared(ds, k.opt, pairstore.New(0))
			f := prune.New(0)
			worstMargin := 1.0
			for i, p := range pr.Pairs {
				bound := f.Bound(&feats[p.I], &feats[p.J])
				tm := pr.Results[i].TM()
				if bound < tm {
					t.Errorf("pair %s/%s: bound %.6f < true TM %.6f",
						ds.Structures[p.I].ID, ds.Structures[p.J].ID, bound, tm)
				}
				if m := bound - tm; m < worstMargin {
					worstMargin = m
				}
			}
			t.Logf("kernel %s: worst bound margin over %d pairs: %.4f", k.name, len(pr.Pairs), worstMargin)

			// Threshold sweep: at every threshold from permissive to
			// aggressive, count skips and misclassifications (a skipped
			// pair whose true TM clears the threshold). The property above
			// makes every misclassification count provably zero; the sweep
			// is the golden quantification of that claim.
			thresholds := []float64{0.1, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
			for _, thr := range thresholds {
				skipped, missed := 0, 0
				for i, p := range pr.Pairs {
					if f.Bound(&feats[p.I], &feats[p.J]) < thr {
						skipped++
						if pr.Results[i].TM() >= thr {
							missed++
						}
					}
				}
				t.Logf("kernel %s: threshold %.2f: skipped %3d/%d (%.1f%%), misclassified %d",
					k.name, thr, skipped, len(pr.Pairs), 100*float64(skipped)/float64(len(pr.Pairs)), missed)
				if missed != 0 {
					t.Errorf("threshold %.2f: %d misclassified pairs (skipped but true TM >= threshold)", thr, missed)
				}
			}
		})
	}
}

// TestCK34SkipFractionAtConservativeThreshold locks the headline pruning
// win: at the conservative threshold 0.5 the filter removes far more
// than the required 25% of CK34's 561 pairs. The exact count is a golden
// value — the dataset and the filter are both deterministic.
func TestCK34SkipFractionAtConservativeThreshold(t *testing.T) {
	ds := synth.CK34()
	kept, rep := core.PrunePairs(ds, 0.5)
	if rep.SkipFraction() < 0.25 {
		t.Errorf("skip fraction at 0.5 = %.3f, want >= 0.25", rep.SkipFraction())
	}
	const wantSkipped = 453 // golden: 453 of 561 pairs (80.7%)
	if rep.Skipped != wantSkipped || rep.Total != 561 {
		t.Errorf("skipped %d of %d, want golden %d of 561", rep.Skipped, rep.Total, wantSkipped)
	}
	if len(kept) != rep.Total-rep.Skipped {
		t.Errorf("kept %d pairs, want %d", len(kept), rep.Total-rep.Skipped)
	}
}
