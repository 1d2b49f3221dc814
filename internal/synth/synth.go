// Package synth generates deterministic synthetic protein CA traces and
// the two benchmark datasets the paper evaluates on.
//
// The paper uses the Chew–Kedem (CK34, 34 domains) and Rost–Sander (RS119,
// 119 chains) PDB-derived datasets. This reproduction has no PDB access,
// so synth builds geometric stand-ins: chains assembled from ideal
// secondary structure segments (helices, strands, loops) arranged into
// compact folds, grouped into "families" obtained by perturbing a shared
// base fold. TM-align consumes only CA coordinates and sequences, so the
// synthetic chains exercise the identical code path; matching the
// published chain counts and realistic length distributions preserves the
// job-count and job-cost-variance structure that drives the paper's
// scaling results. See DESIGN.md ("substitutions") for the rationale.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/ss"
)

// Segment is one secondary-structure element of a blueprint.
type Segment struct {
	Type ss.Type
	Len  int
}

// Blueprint describes a fold as an ordered list of segments.
type Blueprint []Segment

// TotalLen returns the residue count of the blueprint.
func (b Blueprint) TotalLen() int {
	n := 0
	for _, s := range b {
		n += s.Len
	}
	return n
}

// amino acid alphabet used for synthetic sequences.
const aaAlphabet = "ARNDCQEGHILKMFPSTWYV"

// Generate builds a CA trace realizing the blueprint. Helices and strands
// use ideal local geometry (so TM-align's secondary structure assignment
// recovers them); segments are chained with bounded random turns and a
// weak bias toward the centroid to keep folds compact. The result is
// deterministic in (id, seed).
func Generate(id string, bp Blueprint, seed int64) *pdb.Structure {
	rng := rand.New(rand.NewSource(seed ^ hashString(id)))
	n := bp.TotalLen()
	pts := make([]geom.Vec3, 0, n)
	seq := make([]byte, 0, n)

	pos := geom.V(0, 0, 0)
	dir := geom.V(1, 0, 0)

	for _, seg := range bp {
		local := segmentGeometry(seg, rng)
		// Orient the segment's local +x axis along dir with a random roll.
		frame := frameAlong(dir, rng.Float64()*2*math.Pi)
		for i, p := range local {
			g := frame.MulVec(p).Add(pos)
			pts = append(pts, g)
			if i == len(local)-1 {
				// Advance the chain to just past the segment end.
				step := g.Sub(pos)
				if step.Norm() < 1e-9 {
					step = dir.Scale(3.8)
				}
				pos = g.Add(step.Unit().Scale(3.8))
			}
			seq = append(seq, aaAlphabet[rng.Intn(len(aaAlphabet))])
		}
		// Turn: blend previous direction, random kick, and a pull toward
		// the centroid of what exists so far (compactness).
		centroid := geom.Centroid(pts)
		pull := centroid.Sub(pos)
		if pull.Norm() > 1e-9 {
			pull = pull.Unit()
		}
		kick := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if kick.Norm() < 1e-9 {
			kick = geom.V(0, 1, 0)
		}
		dir = dir.Scale(0.4).Add(pull.Scale(0.4)).Add(kick.Unit().Scale(0.8)).Unit()
	}
	return pdb.FromCAs(id, pts, string(seq))
}

// segmentGeometry returns the local-frame CA positions of one segment,
// starting near the origin and extending along +x.
func segmentGeometry(seg Segment, rng *rand.Rand) []geom.Vec3 {
	pts := make([]geom.Vec3, seg.Len)
	switch seg.Type {
	case ss.Helix:
		// Ideal alpha helix along +x: radius 2.3 A, rise 1.5 A, 100 deg.
		for i := range pts {
			a := float64(i) * 100 * math.Pi / 180
			pts[i] = geom.V(1.5*float64(i), 2.3*math.Cos(a), 2.3*math.Sin(a))
		}
	case ss.Strand:
		// Extended strand: 3.3 A rise with alternating 0.5 A pleat.
		for i := range pts {
			z := 0.5
			if i%2 == 1 {
				z = -0.5
			}
			pts[i] = geom.V(3.3*float64(i), 0, z)
		}
	default:
		// Loop/coil: bounded-turn random walk with CA-like 3.8 A steps.
		cur := geom.V(0, 0, 0)
		d := geom.V(1, 0, 0)
		for i := range pts {
			pts[i] = cur
			kick := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(0.7)
			d = d.Add(kick).Unit()
			cur = cur.Add(d.Scale(3.8))
		}
	}
	return pts
}

// frameAlong returns a rotation taking the +x axis to unit vector dir,
// with the given roll angle about dir.
func frameAlong(dir geom.Vec3, roll float64) geom.Mat3 {
	dir = dir.Unit()
	x := geom.V(1, 0, 0)
	axis := x.Cross(dir)
	var base geom.Mat3
	if axis.Norm() < 1e-9 {
		if dir[0] > 0 {
			base = geom.Identity()
		} else {
			base = geom.RotZ(math.Pi)
		}
	} else {
		angle := math.Acos(min(max(x.Dot(dir), -1), 1))
		base = geom.AxisAngle(axis, angle)
	}
	return base.Mul(geom.AxisAngle(geom.V(1, 0, 0), roll))
}

// PerturbOptions controls family-member generation.
type PerturbOptions struct {
	// Noise is the per-coordinate Gaussian sigma in Angstroms.
	Noise float64
	// Indels is the number of short (2-5 residue) deletions applied.
	Indels int
	// MutateFrac is the fraction of residues whose amino acid is changed.
	MutateFrac float64
}

// Perturb derives a family member from a base structure: coordinate
// noise, optional short deletions, sequence mutations and a random rigid
// motion. Deterministic in (id, seed).
func Perturb(base *pdb.Structure, id string, opt PerturbOptions, seed int64) *pdb.Structure {
	rng := rand.New(rand.NewSource(seed ^ hashString(id)))
	res := make([]pdb.Residue, len(base.Residues))
	copy(res, base.Residues)

	// Deletions.
	for k := 0; k < opt.Indels && len(res) > 20; k++ {
		dl := 2 + rng.Intn(4)
		at := rng.Intn(len(res) - dl)
		res = append(res[:at], res[at+dl:]...)
	}

	// Coordinate noise + mutations.
	for i := range res {
		res[i].CA = res[i].CA.Add(geom.V(
			rng.NormFloat64()*opt.Noise,
			rng.NormFloat64()*opt.Noise,
			rng.NormFloat64()*opt.Noise,
		))
		if rng.Float64() < opt.MutateFrac {
			aa := aaAlphabet[rng.Intn(len(aaAlphabet))]
			res[i].AA = aa
			res[i].Name = pdb.ThreeLetter(aa)
		}
		res[i].Seq = i + 1
	}

	// Random rigid motion (comparison must be orientation independent).
	tr := geom.Transform{
		R: geom.AxisAngle(geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()), rng.Float64()*2*math.Pi),
		T: geom.V(rng.NormFloat64()*20, rng.NormFloat64()*20, rng.NormFloat64()*20),
	}
	for i := range res {
		res[i].CA = tr.Apply(res[i].CA)
	}
	return &pdb.Structure{ID: id, Chain: 'A', Residues: res}
}

// hashString gives a stable 64-bit hash for seeding (FNV-1a).
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// Dataset is a named list of structures.
type Dataset struct {
	Name       string
	Structures []*pdb.Structure
}

// Len returns the number of structures.
func (d *Dataset) Len() int { return len(d.Structures) }

// Pairs returns the number of unordered distinct pairs (the all-vs-all
// job count).
func (d *Dataset) Pairs() int { return d.Len() * (d.Len() - 1) / 2 }

// TotalResidues sums all chain lengths.
func (d *Dataset) TotalResidues() int {
	n := 0
	for _, s := range d.Structures {
		n += s.Len()
	}
	return n
}

// family appends count members derived from a base blueprint.
func family(out []*pdb.Structure, name string, bp Blueprint, count int, seed int64, noise float64) []*pdb.Structure {
	base := Generate(name+"-base", bp, seed)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("%s%02d", name, i+1)
		member := Perturb(base, id, PerturbOptions{
			Noise:      noise * (0.6 + 0.5*float64(i%4)/3),
			Indels:     i % 3,
			MutateFrac: 0.3,
		}, seed+int64(i)+1)
		out = append(out, member)
	}
	return out
}

// helixBundle builds a blueprint of nh helices of length hl joined by
// loops of length ll.
func helixBundle(nh, hl, ll int) Blueprint { return joined(ss.Helix, nh, hl, ll) }

// betaBarrel builds ns strands of length sl joined by short loops.
func betaBarrel(ns, sl, ll int) Blueprint { return joined(ss.Strand, ns, sl, ll) }

// joined builds n segments of type t and length l joined by loops of
// length ll.
func joined(t ss.Type, n, l, ll int) Blueprint {
	var bp Blueprint
	for i := 0; i < n; i++ {
		if i > 0 {
			bp = append(bp, Segment{ss.Coil, ll})
		}
		bp = append(bp, Segment{t, l})
	}
	return bp
}

// alphaBeta alternates strands and helices (Rossmann-like).
func alphaBeta(units, sl, hl, ll int) Blueprint {
	var bp Blueprint
	for i := 0; i < units; i++ {
		if i > 0 {
			bp = append(bp, Segment{ss.Coil, ll})
		}
		bp = append(bp, Segment{ss.Strand, sl}, Segment{ss.Coil, ll}, Segment{ss.Helix, hl})
	}
	return bp
}

// CK34 returns the synthetic stand-in for the Chew–Kedem dataset:
// 34 domains in five fold families (globin-like helix bundles, TIM-like
// alpha/beta barrels, plastocyanin-like beta sandwiches, protease-like
// large beta folds and small alpha/beta domains), with lengths in the
// ranges of the original set (~60-260 residues).
func CK34() *Dataset {
	var s []*pdb.Structure
	s = family(s, "glb", helixBundle(6, 18, 6), 10, 1001, 0.8) // ~150 res globins
	s = family(s, "tim", alphaBeta(8, 6, 12, 5), 6, 2002, 0.9) // ~250 res barrels
	s = family(s, "pcy", betaBarrel(8, 8, 5), 8, 3003, 0.7)    // ~100 res beta
	s = family(s, "prt", betaBarrel(12, 9, 6), 5, 4004, 0.9)   // ~220 res proteases
	s = family(s, "sab", alphaBeta(3, 5, 10, 4), 5, 5005, 0.6) // ~65 res small
	if len(s) != 34 {
		panic(fmt.Sprintf("synth: CK34 has %d structures, want 34", len(s)))
	}
	return &Dataset{Name: "CK34", Structures: s}
}

// RS119 returns the synthetic stand-in for the Rost–Sander dataset: 119
// chains with a broad length distribution (~50-460 residues) organised as
// a mix of families and singletons, as in the original secondary
// structure benchmark set.
func RS119() *Dataset {
	var s []*pdb.Structure
	// Families (84 chains).
	s = family(s, "rsa", helixBundle(4, 16, 6), 12, 11011, 0.8)  // ~90
	s = family(s, "rsb", helixBundle(8, 20, 7), 10, 12012, 0.9)  // ~215
	s = family(s, "rsc", betaBarrel(10, 8, 5), 12, 13013, 0.7)   // ~125
	s = family(s, "rsd", alphaBeta(9, 6, 13, 5), 8, 14014, 0.9)  // ~290
	s = family(s, "rse", alphaBeta(4, 6, 11, 5), 12, 15015, 0.7) // ~115
	s = family(s, "rsf", betaBarrel(16, 10, 6), 6, 16016, 1.0)   // ~250
	s = family(s, "rsg", helixBundle(3, 12, 5), 10, 17017, 0.6)  // ~46
	s = family(s, "rsh", alphaBeta(12, 7, 14, 6), 6, 18018, 1.0) // ~410
	s = family(s, "rsi", betaBarrel(6, 7, 4), 8, 19019, 0.6)     // ~62
	// Singletons (35 chains) with varied sizes.
	rng := rand.New(rand.NewSource(99099))
	for i := 0; i < 35; i++ {
		var bp Blueprint
		switch i % 3 {
		case 0:
			bp = helixBundle(2+rng.Intn(7), 12+rng.Intn(10), 5+rng.Intn(4))
		case 1:
			bp = betaBarrel(4+rng.Intn(10), 6+rng.Intn(6), 4+rng.Intn(4))
		default:
			bp = alphaBeta(2+rng.Intn(8), 5+rng.Intn(4), 9+rng.Intn(8), 4+rng.Intn(4))
		}
		id := fmt.Sprintf("rsx%02d", i+1)
		s = append(s, Generate(id, bp, 20020+int64(i)))
	}
	if len(s) != 119 {
		panic(fmt.Sprintf("synth: RS119 has %d structures, want 119", len(s)))
	}
	return &Dataset{Name: "RS119", Structures: s}
}

// ByName returns a built-in dataset by name ("CK34" or "RS119").
func ByName(name string) (*Dataset, error) {
	switch name {
	case "CK34", "ck34":
		return CK34(), nil
	case "RS119", "rs119":
		return RS119(), nil
	}
	return nil, fmt.Errorf("synth: unknown dataset %q (have CK34, RS119)", name)
}

// Small returns a small n-structure dataset for tests: two families plus
// singletons, deterministic in seed.
func Small(n int, seed int64) *Dataset {
	var s []*pdb.Structure
	half := n / 2
	s = family(s, "fa", helixBundle(4, 14, 5), half, seed, 0.7)
	s = family(s, "fb", betaBarrel(6, 8, 4), n-half, seed+77, 0.7)
	return &Dataset{Name: fmt.Sprintf("small%d", n), Structures: s[:n]}
}
