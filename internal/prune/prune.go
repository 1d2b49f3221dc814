// Package prune implements an opt-in all-vs-all pre-filter: cheap
// per-structure features (length, secondary-structure composition,
// sequence) combined into a conservative upper bound on the mean
// TM-score of a pair, so pairs that provably-or-confidently cannot
// reach a caller-chosen threshold are skipped without running the
// O(L^2) TM-align kernel at all.
//
// The bound is the minimum of three independent caps:
//
//   - Length cap (provable): TM normalised by length L sums at most
//     min(L1, L2) unit terms, so TM_L <= min(L1,L2)/L and the mean of
//     the two normalisations is at most (r+1)/2 with r = min/max.
//   - Sequence cap (calibrated): Gotoh affine-gap alignment score of
//     the two sequences (affineScore), normalised by the shorter length.
//     On the CK34 calibration set, no pair with mean TM >= 0.35 has a
//     sequence similarity below seqHi (observed gap: dissimilar pairs
//     max 0.17, similar pairs min 0.39).
//   - Composition cap (calibrated): half-L1 distance between the
//     secondary-structure composition vectors. No CK34 pair with mean
//     TM >= 0.35 has a composition distance above compLo (observed
//     gap: similar pairs max 0.36, dissimilar-only above 0.50).
//
// The calibrated caps are estimates, not proofs: they hold exhaustively
// on CK34 (with margins of at least 0.04 on each knee, see the package
// tests, which verify zero misclassifications at every threshold for
// both the default and fast kernels) and degrade gracefully elsewhere —
// a structure without sequence data disables the sequence cap rather
// than mis-pruning. The length cap alone is always sound.
//
// Cost. The sequence cap is the only O(L1*L2) term, and only its score
// is used, so affineScore is a score-only recurrence over three rolling
// int32 rows in tenths of a match: no tables, no traceback, ~2.4 ns per
// cell and ~40 us per RS119 pair (the float64 traceback aligner it
// replaced, kept as the test oracle, took ~13 ns and ~270 us). The
// sequence cap never goes below capFloor, so when the length and
// composition caps have already brought the bound down to capFloor the
// minimum cannot move and Bound returns without running the DP at all:
// an exact short-circuit (1632 of 7021 RS119 pairs), not an estimate.
// Pairs are independent, so core.PrunePairs decides them on every host
// core, one Filter per goroutine.
package prune

import (
	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/ss"
)

// Features summarises one structure for the pre-filter. Extract it once
// per structure; bounds are then O(L^2) in the DP similarity terms only.
type Features struct {
	// Length is the chain length in residues.
	Length int
	// Comp[t] is the fraction of residues with ss.Type t (index 0 unused).
	Comp [5]float64
	// Sec is the secondary structure assignment.
	Sec []ss.Type
	// Seq is the one-letter sequence ("" disables the sequence cap).
	Seq string
}

// Extract computes the pre-filter features of one CA trace.
func Extract(ca []geom.Vec3, seq string) Features {
	sec := ss.Assign(ca)
	return FromSec(sec, seq)
}

// FromSec builds Features from an existing secondary structure
// assignment (callers that already ran ss.Assign avoid repeating it).
func FromSec(sec []ss.Type, seq string) Features {
	f := Features{Length: len(sec), Sec: sec, Seq: seq}
	if len(sec) == 0 {
		return f
	}
	for _, t := range sec {
		f.Comp[int(t)]++
	}
	inv := 1 / float64(len(sec))
	for k := range f.Comp {
		f.Comp[k] *= inv
	}
	return f
}

// Calibration constants (see the package comment). The knees carry at
// least 0.04 of margin to the nearest CK34 observation on either side.
const (
	// capFloor is the bound assigned when a calibrated cap fires: safely
	// above the largest mean TM observed for any dissimilar CK34 pair
	// (0.265), safely below any similar pair (0.758).
	capFloor = 0.35
	// Sequence similarity knee: below seqLo the cap is capFloor, above
	// seqHi it is 1 (no information), linear in between.
	seqLo = 0.28
	seqHi = 0.38
	// Composition distance knee: above compHi the cap is capFloor, below
	// compLo it is 1, linear in between.
	compLo = 0.40
	compHi = 0.50
	// Sequence similarity DP, in tenths: an identical residue scores 1,
	// a gap of k residues costs 1 + 0.1*k.
	seqMatch  = 10
	gapOpen   = -10
	gapExtend = -1
)

// Filter prunes pairs whose bound falls below Threshold. It is not safe
// for concurrent use (it owns the report and three DP rows of scratch);
// each goroutine needs its own.
type Filter struct {
	// Threshold is the -prune-tm value: pairs with Bound < Threshold are
	// skipped.
	Threshold float64
	// Ops accumulates the filter's own DP cost, kept separate from the
	// simulated kernel counters so pruning never perturbs simulated
	// per-job times.
	Ops costmodel.Counter
	// Report accumulates the skip/keep accounting across Skip calls.
	Report Report

	rows []int32
}

// New returns a Filter skipping pairs bounded below threshold.
func New(threshold float64) *Filter {
	return &Filter{Threshold: threshold, Report: Report{Threshold: threshold}}
}

// Report summarises one pruning pass.
type Report struct {
	// Threshold echoes the filter threshold.
	Threshold float64 `json:"threshold"`
	// Total and Skipped count examined and pruned pairs.
	Total   int `json:"total"`
	Skipped int `json:"skipped"`
	// BoundHist[k] counts pairs with bound in [k/10, (k+1)/10); the last
	// bucket absorbs bounds >= 1.
	BoundHist [11]int `json:"bound_hist"`
	// DPCells is the filter's own dynamic-programming cost: cells of the
	// sequence DP actually executed (pairs the other caps had already
	// floored run none).
	DPCells int64 `json:"dp_cells"`
}

// Add folds o, a report of other pairs decided at the same threshold,
// into r.
func (r *Report) Add(o *Report) {
	r.Total += o.Total
	r.Skipped += o.Skipped
	for k, c := range o.BoundHist {
		r.BoundHist[k] += c
	}
	r.DPCells += o.DPCells
}

// SkipFraction returns the fraction of examined pairs that were pruned.
func (r *Report) SkipFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Skipped) / float64(r.Total)
}

// Bound returns the conservative upper bound on the mean TM-score of
// the pair (min of the length, sequence and composition caps).
func (f *Filter) Bound(a, b *Features) float64 {
	minL, maxL := a.Length, b.Length
	if minL > maxL {
		minL, maxL = maxL, minL
	}
	if minL == 0 {
		return 0
	}
	// Provable length cap.
	bound := (float64(minL)/float64(maxL) + 1) / 2

	// Calibrated composition cap.
	var compD float64
	for k := 1; k < 5; k++ {
		d := a.Comp[k] - b.Comp[k]
		if d < 0 {
			d = -d
		}
		compD += d
	}
	compD /= 2
	if c := rampDown(compD, compLo, compHi); c < bound {
		bound = c
	}

	// Calibrated sequence cap (only with full sequence data on both
	// sides; a missing or truncated sequence yields no cap rather than a
	// spuriously low similarity). It is never below capFloor, so a bound
	// already there cannot move and the DP is not run.
	if bound > capFloor && len(a.Seq) >= a.Length && len(b.Seq) >= b.Length {
		if n := 3 * (b.Length + 1); cap(f.rows) < n {
			f.rows = make([]int32, n)
		}
		score := affineScore(a.Seq[:a.Length], b.Seq[:b.Length], f.rows)
		f.Ops.AddDP(3 * a.Length * b.Length)
		seqSim := float64(score) / seqMatch / float64(minL)
		if c := rampUp(seqSim, seqLo, seqHi); c < bound {
			bound = c
		}
	}
	return bound
}

// Skip records the pair in the report and reports whether it should be
// pruned (bound below threshold).
func (f *Filter) Skip(a, b *Features) bool {
	bd := f.Bound(a, b)
	f.Report.Total++
	k := int(bd * 10)
	if k < 0 {
		k = 0
	}
	if k > 10 {
		k = 10
	}
	f.Report.BoundHist[k]++
	f.Report.DPCells = int64(f.Ops.DPCells)
	if bd < f.Threshold {
		f.Report.Skipped++
		return true
	}
	return false
}

// rampUp maps x <= lo to capFloor, x >= hi to 1, linear in between.
func rampUp(x, lo, hi float64) float64 {
	if x <= lo {
		return capFloor
	}
	if x >= hi {
		return 1
	}
	return capFloor + (x-lo)/(hi-lo)*(1-capFloor)
}

// rampDown maps x >= hi to capFloor, x <= lo to 1, linear in between.
func rampDown(x, lo, hi float64) float64 {
	if x >= hi {
		return capFloor
	}
	if x <= lo {
		return 1
	}
	return 1 - (x-lo)/(hi-lo)*(1-capFloor)
}
