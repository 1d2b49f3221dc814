// Package mcpsc implements the paper's proposed extension to
// multi-criteria protein structure comparison (MC-PSC): several pairwise
// comparison methods run side by side — different slave cores execute
// different algorithms on the same structure data — and their scores are
// fused into a consensus ranking (Section V, "the approach developed in
// this work can be extended to the more general MC-PSC problem").
//
// It has the shape of core: Compute evaluates every (method, pair) once
// through the pair store into a Scores table, and the one Run replays
// the table through the simulated farm under any slave -> method
// assignment. One-vs-all is a pair list (QueryPairs) plus Consensus and
// Rank, all-vs-all is sched.AllVsAll. The paper asks for "assessment of
// optimal strategies for the partitioning of the cores dedicated to
// different PSC algorithms, since the algorithm complexities may vary":
// EqualPartition and ProportionalPartition are two, RoundRobin and
// Contiguous two ways of laying slaves out.
//
// Besides TM-align, two further comparison methods of very different
// cost are implemented so the multi-method machinery is exercised by
// real algorithms: a gapless optimal-superposition RMSD comparator and a
// contact-map overlap comparator.
package mcpsc

import (
	"math"
	"sort"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/tmalign"
)

// Score is one method's verdict on a pair: a similarity in [0, 1]
// (higher = more similar) plus the operation counts it cost.
type Score struct {
	Method string
	Value  float64
	Ops    costmodel.Counter
}

// Method is a pairwise protein structure comparison algorithm.
type Method interface {
	// Name identifies the method in reports and consensus tables.
	Name() string
	// Compare scores the similarity of two structures.
	Compare(a, b *pdb.Structure) Score
}

// TMAlign adapts the tmalign package to the Method interface. The score
// is the mean of the two length-normalised TM-scores.
type TMAlign struct {
	Opt tmalign.Options
}

// Name implements Method.
func (TMAlign) Name() string { return "tmalign" }

// Compare implements Method.
func (m TMAlign) Compare(a, b *pdb.Structure) Score {
	r := tmalign.Compare(a, b, m.Opt)
	return Score{Method: m.Name(), Value: r.TM(), Ops: r.Ops}
}

// GaplessRMSD compares by the best gapless (diagonal) superposition:
// every offset of the two chains is superposed optimally and the best
// length-weighted RMSD is converted to a similarity 1/(1+(rmsd/r0)^2)
// scaled by the aligned fraction.
type GaplessRMSD struct {
	// R0 is the RMSD scale (default 4 A).
	R0 float64
}

// Name implements Method.
func (GaplessRMSD) Name() string { return "gapless-rmsd" }

// Compare implements Method.
func (m GaplessRMSD) Compare(a, b *pdb.Structure) Score {
	r0 := m.R0
	if r0 <= 0 {
		r0 = 4
	}
	x, y := a.CAs(), b.CAs()
	var ops costmodel.Counter
	minLen := min(len(x), len(y))
	if minLen < 3 {
		return Score{Method: m.Name(), Ops: ops}
	}
	minOverlap := max(minLen/2, 3)
	best := 0.0
	bufX := make([]geom.Vec3, minLen)
	bufY := make([]geom.Vec3, minLen)
	seqalign.GaplessThreading(len(x), len(y), minOverlap, func(k, lo, hi int) {
		n := hi - lo
		for j := lo; j < hi; j++ {
			bufX[j-lo] = x[j+k]
			bufY[j-lo] = y[j]
		}
		_, rmsd := geom.Superpose(bufX[:n], bufY[:n])
		ops.AddKabsch(n)
		frac := float64(n) / float64(minLen)
		sim := frac / (1 + (rmsd/r0)*(rmsd/r0))
		if sim > best {
			best = sim
		}
	})
	return Score{Method: m.Name(), Value: best, Ops: ops}
}

// ContactOverlap compares the chains' residue contact maps: contacts are
// CA pairs within Cutoff (sequence separation >= 3); the score is the
// best gapless-offset overlap of the two contact sets, normalised by the
// smaller set (a tractable diagonal restriction of the NP-hard maximum
// contact map overlap problem).
type ContactOverlap struct {
	// Cutoff is the CA-CA contact distance (default 8 A).
	Cutoff float64
}

// Name implements Method.
func (ContactOverlap) Name() string { return "contact-overlap" }

type contact struct{ i, j int }

func contactSet(pts []geom.Vec3, cutoff float64, ops *costmodel.Counter) map[contact]bool {
	set := map[contact]bool{}
	c2 := cutoff * cutoff
	for i := 0; i < len(pts); i++ {
		for j := i + 3; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) <= c2 {
				set[contact{i, j}] = true
			}
		}
	}
	ops.AddScore(len(pts) * len(pts) / 2)
	return set
}

// Compare implements Method.
func (m ContactOverlap) Compare(a, b *pdb.Structure) Score {
	cutoff := m.Cutoff
	if cutoff <= 0 {
		cutoff = 8
	}
	var ops costmodel.Counter
	ca, cb := contactSet(a.CAs(), cutoff, &ops), contactSet(b.CAs(), cutoff, &ops)
	if len(ca) == 0 || len(cb) == 0 {
		return Score{Method: m.Name(), Ops: ops}
	}
	best := 0
	// Slide chain b over chain a: offset k maps b residue j to a residue
	// j+k.
	for k := -(b.Len() - 1); k < a.Len(); k++ {
		n := 0
		for c := range cb {
			if ca[contact{c.i + k, c.j + k}] {
				n++
			}
		}
		ops.AddScore(len(cb))
		best = max(best, n)
	}
	return Score{Method: m.Name(), Value: float64(best) / float64(min(len(ca), len(cb))), Ops: ops}
}

// ZScores standardises a sample ((x-mean)/std); a zero-variance sample
// yields all zeros.
func ZScores(xs []float64) []float64 {
	n := len(xs)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n))
	if std == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - mean) / std
	}
	return out
}

// Consensus fuses per-method score vectors (each over the same targets)
// into a single vector by averaging z-scores — the standard MC-PSC
// fusion used by ProCKSI-style consensus servers.
func Consensus(perMethod [][]float64) []float64 {
	if len(perMethod) == 0 {
		return nil
	}
	n := len(perMethod[0])
	out := make([]float64, n)
	for _, scores := range perMethod {
		if len(scores) != n {
			panic("mcpsc: consensus score vectors differ in length")
		}
		for i, z := range ZScores(scores) {
			out[i] += z
		}
	}
	for i := range out {
		out[i] /= float64(len(perMethod))
	}
	return out
}

// Rank returns target indices ordered by descending score (ties keep
// index order).
func Rank(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}
