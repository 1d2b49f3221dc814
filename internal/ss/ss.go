// Package ss assigns secondary structure from a CA trace using TM-align's
// distance-pattern scheme (Zhang & Skolnick 2005): each residue is
// classified from the six CA-CA distances among positions i-2..i+2.
package ss

import (
	"math"

	"rckalign/internal/geom"
)

// Type is a secondary structure class. The numeric values follow TM-align
// (1=coil, 2=helix, 3=turn, 4=strand) so that score tables match.
type Type byte

const (
	Coil   Type = 1
	Helix  Type = 2
	Turn   Type = 3
	Strand Type = 4
)

// Char returns the conventional one-letter code (C/H/T/E).
func (t Type) Char() byte {
	switch t {
	case Helix:
		return 'H'
	case Turn:
		return 'T'
	case Strand:
		return 'E'
	default:
		return 'C'
	}
}

// String implements fmt.Stringer.
func (t Type) String() string { return string(t.Char()) }

// classify applies TM-align's sec_str decision rule to the six pairwise
// distances among residues i-2, i-1, i, i+1, i+2.
func classify(d13, d14, d15, d24, d25, d35 float64) Type {
	const deltaHelix = 2.1
	if math.Abs(d15-6.37) < deltaHelix && math.Abs(d14-5.18) < deltaHelix &&
		math.Abs(d25-5.18) < deltaHelix && math.Abs(d13-5.45) < deltaHelix &&
		math.Abs(d24-5.45) < deltaHelix && math.Abs(d35-5.45) < deltaHelix {
		return Helix
	}
	const deltaStrand = 1.42
	if math.Abs(d15-13) < deltaStrand && math.Abs(d14-10.4) < deltaStrand &&
		math.Abs(d25-10.4) < deltaStrand && math.Abs(d13-6.1) < deltaStrand &&
		math.Abs(d24-6.1) < deltaStrand && math.Abs(d35-6.1) < deltaStrand {
		return Strand
	}
	if d15 < 8 {
		return Turn
	}
	return Coil
}

// Assign classifies every residue of the CA trace. Residues closer than
// two positions to either terminus are coil (the distance pattern is
// undefined there), as in TM-align.
func Assign(ca []geom.Vec3) []Type {
	n := len(ca)
	sec := make([]Type, n)
	for i := range sec {
		sec[i] = Coil
	}
	for i := 2; i < n-2; i++ {
		d13 := ca[i-2].Dist(ca[i])
		d14 := ca[i-2].Dist(ca[i+1])
		d15 := ca[i-2].Dist(ca[i+2])
		d24 := ca[i-1].Dist(ca[i+1])
		d25 := ca[i-1].Dist(ca[i+2])
		d35 := ca[i].Dist(ca[i+2])
		sec[i] = classify(d13, d14, d15, d24, d25, d35)
	}
	return sec
}

// String renders an assignment as a C/H/T/E string.
func String(sec []Type) string {
	b := make([]byte, len(sec))
	for i, t := range sec {
		b[i] = t.Char()
	}
	return string(b)
}

// Fraction returns the fraction of residues with the given type.
func Fraction(sec []Type, t Type) float64 {
	if len(sec) == 0 {
		return 0
	}
	n := 0
	for _, s := range sec {
		if s == t {
			n++
		}
	}
	return float64(n) / float64(len(sec))
}
