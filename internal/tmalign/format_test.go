package tmalign

import (
	"strings"
	"testing"

	"rckalign/internal/pdb"
	"rckalign/internal/synth"
)

func TestFormatAlignmentSelf(t *testing.T) {
	s := helixProtein("p", 60, 40)
	r := Compare(s, s, FastOptions())
	out := FormatAlignment(r, s, s)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("alignment has %d lines", len(lines))
	}
	if lines[0] != lines[2] {
		t.Error("self alignment rows differ")
	}
	if strings.Contains(lines[0], "-") {
		t.Error("self alignment should have no gaps")
	}
	// All pairs close: marker line all ':'.
	if strings.Trim(lines[1], ":") != "" {
		t.Errorf("marker line not all colons: %q", lines[1])
	}
	if len(lines[0]) != s.Len() {
		t.Errorf("alignment width %d, want %d", len(lines[0]), s.Len())
	}
}

func TestFormatAlignmentWithGaps(t *testing.T) {
	a := helixProtein("a", 80, 41)
	b := synth.Perturb(a, "b", synth.PerturbOptions{Noise: 1.0, Indels: 2}, 42)
	r := Compare(a, b, DefaultOptions())
	out := FormatAlignment(r, a, b)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("alignment has %d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Fatalf("ragged alignment: %d/%d/%d", len(lines[0]), len(lines[1]), len(lines[2]))
	}
	// Every chain-1 and chain-2 residue must appear exactly once.
	if n := len(strings.ReplaceAll(lines[0], "-", "")); n != a.Len() {
		t.Errorf("chain 1 emitted %d of %d residues", n, a.Len())
	}
	if n := len(strings.ReplaceAll(lines[2], "-", "")); n != b.Len() {
		t.Errorf("chain 2 emitted %d of %d residues", n, b.Len())
	}
	// No column may have gaps on both sides.
	for i := range lines[0] {
		if lines[0][i] == '-' && lines[2][i] == '-' {
			t.Fatalf("double gap at column %d", i)
		}
	}
	// Marker colons must match AlignmentColumns' close count.
	_, close := AlignmentColumns(r, a, b)
	if got := strings.Count(lines[1], ":"); got != close {
		t.Errorf("marker colons %d != close pairs %d", got, close)
	}
}

func TestFormatAlignmentMismatchedStructures(t *testing.T) {
	a := helixProtein("a", 50, 43)
	b := helixProtein("b", 60, 44)
	r := Compare(a, b, FastOptions())
	if out := FormatAlignment(r, b, a); !strings.Contains(out, "unavailable") {
		t.Error("mismatched structures should be rejected")
	}
}

func TestAlignmentColumnsBounds(t *testing.T) {
	a := helixProtein("a", 50, 45)
	b := synth.Perturb(a, "b", synth.PerturbOptions{Noise: 1.2}, 46)
	r := Compare(a, b, FastOptions())
	aligned, close := AlignmentColumns(r, a, b)
	if aligned < close {
		t.Errorf("aligned %d < close %d", aligned, close)
	}
	if aligned == 0 {
		t.Error("no aligned columns")
	}
}

// AlignmentColumns counts the (aligned, close) pairs of a formatted
// alignment: aligned = pairs present in Invmap, close = pairs within
// 5 A under the result transform.
func AlignmentColumns(r *Result, s1, s2 *pdb.Structure) (aligned, close int) {
	x := s1.CAs()
	for j, pi := range r.Invmap {
		if pi < 0 || pi >= len(x) || j >= s2.Len() {
			continue
		}
		aligned++
		if r.Transform.Apply(x[pi]).Dist(s2.Residues[j].CA) < 5 {
			close++
		}
	}
	return aligned, close
}
