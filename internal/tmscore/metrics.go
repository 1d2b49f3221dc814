package tmscore

import (
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
)

// This file implements the companion model-quality metrics of the
// TM-score program (Zhang & Skolnick 2004): GDT-TS, GDT-HA and MaxSub.
// All operate on a fixed residue correspondence x[i] <-> y[i] and search
// superpositions internally.

// fractionUnder finds (approximately, by LGA-style iterative subset
// superposition from sliding seed fragments) the maximum fraction of
// pairs that can be brought within distance d of each other by a rigid
// motion of x.
func fractionUnder(x, y []geom.Vec3, d float64, ops *costmodel.Counter) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	d2 := d * d
	best := 0
	xt := make([]geom.Vec3, n)
	r1 := make([]geom.Vec3, n)
	r2 := make([]geom.Vec3, n)

	countAndCollect := func(tr geom.Transform) (int, int) {
		tr.ApplyAll(xt, x)
		ops.AddRotate(n)
		k := 0
		for i := 0; i < n; i++ {
			if xt[i].Dist2(y[i]) <= d2 {
				r1[k] = x[i]
				r2[k] = y[i]
				k++
			}
		}
		ops.AddScore(n)
		return k, k
	}

	// Seed fragments of a few lengths sliding across the alignment.
	for _, frag := range []int{n, n / 2, n / 4, 8} {
		if frag < 3 {
			frag = 3
		}
		if frag > n {
			frag = n
		}
		step := frag / 2
		if step < 1 {
			step = 1
		}
		for start := 0; start+frag <= n; start += step {
			tr, _ := geom.Superpose(x[start:start+frag], y[start:start+frag])
			ops.AddKabsch(frag)
			k, _ := countAndCollect(tr)
			if k > best {
				best = k
			}
			// Iterative refinement on the in-threshold subset.
			for it := 0; it < 10 && k >= 3; it++ {
				tr, _ = geom.Superpose(r1[:k], r2[:k])
				ops.AddKabsch(k)
				k2, _ := countAndCollect(tr)
				if k2 > best {
					best = k2
				}
				if k2 == k {
					break
				}
				k = k2
			}
		}
		if frag == n {
			continue
		}
	}
	return float64(best) / float64(n)
}

// GDT holds the global distance test fractions at the standard cutoffs.
type GDT struct {
	// P1, P2, P4, P8 are the maximal fractions of residues within
	// 1, 2, 4 and 8 A; P05 is the 0.5 A fraction used by GDT-HA.
	P05, P1, P2, P4, P8 float64
}

// TS returns the GDT total score: the mean of the 1, 2, 4 and 8 A
// fractions.
func (g GDT) TS() float64 { return (g.P1 + g.P2 + g.P4 + g.P8) / 4 }

// HA returns the high-accuracy score: the mean of the 0.5, 1, 2, 4 A
// fractions.
func (g GDT) HA() float64 { return (g.P05 + g.P1 + g.P2 + g.P4) / 4 }

// GDTScores computes the global distance test for a fixed residue
// correspondence (x[i] matches y[i]). ops may be nil.
func GDTScores(x, y []geom.Vec3, ops *costmodel.Counter) GDT {
	if len(x) != len(y) {
		panic(fmt.Errorf("%w (GDT: %d vs %d)", ErrAlignedLength, len(x), len(y)))
	}
	return GDT{
		P05: fractionUnder(x, y, 0.5, ops),
		P1:  fractionUnder(x, y, 1, ops),
		P2:  fractionUnder(x, y, 2, ops),
		P4:  fractionUnder(x, y, 4, ops),
		P8:  fractionUnder(x, y, 8, ops),
	}
}

// MaxSub computes the MaxSub score (Siew et al. 2000) for a fixed
// correspondence: the largest superposable substructure under a 3.5 A
// threshold, scored as sum 1/(1+(d/3.5)^2) over the substructure,
// normalised by the alignment length. ops may be nil.
func MaxSub(x, y []geom.Vec3, ops *costmodel.Counter) float64 {
	const d = 3.5
	n := len(x)
	if n != len(y) {
		panic(fmt.Errorf("%w (MaxSub: %d vs %d)", ErrAlignedLength, n, len(y)))
	}
	if n == 0 {
		return 0
	}
	d2 := d * d
	best := 0.0
	xt := make([]geom.Vec3, n)
	r1 := make([]geom.Vec3, n)
	r2 := make([]geom.Vec3, n)

	score := func(tr geom.Transform) (float64, int) {
		tr.ApplyAll(xt, x)
		ops.AddRotate(n)
		s := 0.0
		k := 0
		for i := 0; i < n; i++ {
			di2 := xt[i].Dist2(y[i])
			if di2 <= d2 {
				s += 1 / (1 + di2/d2)
				r1[k] = x[i]
				r2[k] = y[i]
				k++
			}
		}
		ops.AddScore(n)
		return s / float64(n), k
	}

	for _, frag := range []int{n, n / 2, 8} {
		if frag < 3 {
			frag = 3
		}
		if frag > n {
			frag = n
		}
		step := frag / 2
		if step < 1 {
			step = 1
		}
		for start := 0; start+frag <= n; start += step {
			tr, _ := geom.Superpose(x[start:start+frag], y[start:start+frag])
			ops.AddKabsch(frag)
			s, k := score(tr)
			if s > best {
				best = s
			}
			for it := 0; it < 10 && k >= 3; it++ {
				tr, _ = geom.Superpose(r1[:k], r2[:k])
				ops.AddKabsch(k)
				s2, k2 := score(tr)
				if s2 > best {
					best = s2
				}
				if k2 == k {
					break
				}
				k = k2
			}
		}
	}
	return best
}
