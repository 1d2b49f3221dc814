package tmalign

import (
	"strings"

	"rckalign/internal/geom"
	"rckalign/internal/pdb"
)

// FormatAlignment renders the classic TM-align three-line alignment view
// for a result: chain 1 residues on the first line, chain 2 on the
// third, and a marker line between them (':' for aligned pairs within
// 5 A after superposition, '.' for other aligned pairs). Unaligned
// residues pair with '-' gaps. s1 and s2 must be the structures the
// result was computed from.
func FormatAlignment(r *Result, s1, s2 *pdb.Structure) string {
	if r.Len1 != s1.Len() || r.Len2 != s2.Len() {
		return "(alignment unavailable: structures do not match result)"
	}
	x := s1.CAs()
	xt := make([]geom.Vec3, len(x))
	r.Transform.ApplyAll(xt, x)
	seq1, seq2 := s1.Sequence(), s2.Sequence()

	var a, m, b strings.Builder
	i := 0 // next unemitted chain-1 residue
	for j := 0; j < r.Len2; j++ {
		pi := r.Invmap[j]
		if pi < 0 {
			// chain-2 residue unaligned.
			a.WriteByte('-')
			m.WriteByte(' ')
			b.WriteByte(seq2[j])
			continue
		}
		// Emit chain-1 residues skipped before this pair.
		for ; i < pi; i++ {
			a.WriteByte(seq1[i])
			m.WriteByte(' ')
			b.WriteByte('-')
		}
		a.WriteByte(seq1[pi])
		if xt[pi].Dist(s2.Residues[j].CA) < 5 {
			m.WriteByte(':')
		} else {
			m.WriteByte('.')
		}
		b.WriteByte(seq2[j])
		i = pi + 1
	}
	// Trailing chain-1 residues.
	for ; i < r.Len1; i++ {
		a.WriteByte(seq1[i])
		m.WriteByte(' ')
		b.WriteByte('-')
	}
	return a.String() + "\n" + m.String() + "\n" + b.String() + "\n"
}
