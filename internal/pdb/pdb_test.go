package pdb

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rckalign/internal/geom"
)

const samplePDB = `HEADER    TEST PROTEIN
ATOM      1  N   MET A   1      11.104   6.134  -6.504  1.00  0.00           N
ATOM      2  CA  MET A   1      11.639   6.071  -5.147  1.00  0.00           C
ATOM      3  C   MET A   1      10.714   6.805  -4.175  1.00  0.00           C
ATOM      4  CA  ALA A   2       9.580   6.000  -3.655  1.00  0.00           C
ATOM      5  CA AGLY A   3       8.580   5.000  -2.655  0.50  0.00           C
ATOM      6  CA BGLY A   3       8.680   5.100  -2.755  0.50  0.00           C
ATOM      7  CA  TRP A   4       7.580   4.000  -1.655  1.00  0.00           C
TER
ATOM      8  CA  ALA B   1       1.000   2.000   3.000  1.00  0.00           C
END
`

func TestParseFirstChainCAOnly(t *testing.T) {
	s, err := Parse(strings.NewReader(samplePDB), "sample")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (chain A CAs, altloc A only)", s.Len())
	}
	if s.Chain != 'A' {
		t.Errorf("Chain = %c, want A", s.Chain)
	}
	if got := s.Sequence(); got != "MAGW" {
		t.Errorf("Sequence = %q, want MAGW", got)
	}
	want := geom.V(11.639, 6.071, -5.147)
	if s.Residues[0].CA != want {
		t.Errorf("first CA = %v, want %v", s.Residues[0].CA, want)
	}
	if s.Residues[2].CA != geom.V(8.580, 5.000, -2.655) {
		t.Errorf("altloc A should be kept, got %v", s.Residues[2].CA)
	}
}

func TestParseStopsAtENDMDL(t *testing.T) {
	in := `MODEL        1
ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C
ATOM      2  CA  GLY A   2       3.800   0.000   0.000  1.00  0.00           C
ENDMDL
MODEL        2
ATOM      3  CA  ALA A   1       9.000   9.000   9.000  1.00  0.00           C
ENDMDL
END
`
	s, err := Parse(strings.NewReader(in), "m")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (first model only)", s.Len())
	}
}

func TestParseNewChainWithoutTER(t *testing.T) {
	in := `ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C
ATOM      2  CA  GLY B   1       3.800   0.000   0.000  1.00  0.00           C
END
`
	s, err := Parse(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Chain != 'A' {
		t.Fatalf("want only chain A residue, got %d residues chain %c", s.Len(), s.Chain)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("HEADER only\nEND\n"), "empty"); err == nil {
		t.Error("expected error for structure without CA atoms")
	}
	bad := "ATOM      1  CA  ALA A   1       xxx.000   0.000   0.000\n"
	if _, err := Parse(strings.NewReader(bad), "bad"); err == nil {
		t.Error("expected error for bad coordinate")
	}
	short := "ATOM      1  CA  ALA A 1\n"
	if _, err := Parse(strings.NewReader(short), "short"); err == nil {
		t.Error("expected error for short ATOM record")
	}
}

func TestParseDuplicateResidueSkipped(t *testing.T) {
	in := `ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C
ATOM      2  CA  ALA A   1       1.000   0.000   0.000  1.00  0.00           C
END
`
	s, err := Parse(strings.NewReader(in), "dup")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("duplicate residue should be skipped, got %d", s.Len())
	}
}

func TestOneThreeLetterCodes(t *testing.T) {
	if OneLetter("ala") != 'A' || OneLetter(" GLY") != 'G' {
		t.Error("OneLetter should be case/space insensitive")
	}
	if OneLetter("ZZZ") != 'X' {
		t.Error("unknown residue should map to X")
	}
	if ThreeLetter('W') != "TRP" {
		t.Errorf("ThreeLetter(W) = %s", ThreeLetter('W'))
	}
	if ThreeLetter('M') != "MET" {
		t.Errorf("ThreeLetter(M) = %s, want MET (not MSE)", ThreeLetter('M'))
	}
	if ThreeLetter('?') != "UNK" {
		t.Error("unknown code should map to UNK")
	}
	// Round trip for the 20 standard residues.
	for _, aa := range []byte("ARNDCQEGHILKMFPSTWYV") {
		if OneLetter(ThreeLetter(aa)) != aa {
			t.Errorf("round trip failed for %c", aa)
		}
	}
}

func randomStructure(rng *rand.Rand, n int) *Structure {
	aas := "ARNDCQEGHILKMFPSTWYV"
	pts := make([]geom.Vec3, n)
	seq := make([]byte, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*100-50, rng.Float64()*100-50, rng.Float64()*100-50)
		seq[i] = aas[rng.Intn(len(aas))]
	}
	return FromCAs("rt", pts, string(seq))
}

func TestWriteParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomStructure(rng, 80)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip length %d != %d", got.Len(), s.Len())
	}
	if got.Sequence() != s.Sequence() {
		t.Fatalf("round trip sequence mismatch")
	}
	for i := range s.Residues {
		if got.Residues[i].CA.Dist(s.Residues[i].CA) > 1e-3 {
			t.Fatalf("residue %d coordinate drift: %v vs %v", i, got.Residues[i].CA, s.Residues[i].CA)
		}
	}
}

func TestWriteParseFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(10))
	s := randomStructure(rng, 30)
	path := filepath.Join(dir, "prot.pdb")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "prot" {
		t.Errorf("ID = %q, want file stem", got.ID)
	}
	if got.Len() != s.Len() {
		t.Errorf("length mismatch %d vs %d", got.Len(), s.Len())
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile(filepath.Join(t.TempDir(), "nope.pdb")); !os.IsNotExist(err) {
		t.Errorf("want not-exist error, got %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromCAs("orig", []geom.Vec3{{0, 0, 0}, {1, 1, 1}}, "AG")
	c := s.Clone()
	c.Residues[0].CA = geom.V(9, 9, 9)
	if s.Residues[0].CA == c.Residues[0].CA {
		t.Error("Clone shares residue storage with original")
	}
}

func TestCAsCopies(t *testing.T) {
	s := FromCAs("c", []geom.Vec3{{1, 2, 3}}, "A")
	pts := s.CAs()
	pts[0] = geom.V(0, 0, 0)
	if s.Residues[0].CA != geom.V(1, 2, 3) {
		t.Error("CAs must return a copy")
	}
}

func TestFromCAsSeqPadding(t *testing.T) {
	s := FromCAs("p", make([]geom.Vec3, 3), "G")
	if got := s.Sequence(); got != "GAA" {
		t.Errorf("Sequence = %q, want GAA (padded)", got)
	}
}

func TestParseHETATMSelenomethionine(t *testing.T) {
	in := `ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C
HETATM    2  CA  MSE A   2       3.800   0.000   0.000  1.00  0.00           C
HETATM    3  O   HOH A 100      99.000  99.000  99.000  1.00  0.00           O
HETATM    4 CA    CA A 101      50.000  50.000  50.000  1.00  0.00          CA
ATOM      5  CA  GLY A   3       7.600   0.000   0.000  1.00  0.00           C
END
`
	s, err := Parse(strings.NewReader(in), "mse")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (ALA, MSE, GLY; water and calcium ion skipped)", s.Len())
	}
	if got := s.Sequence(); got != "AMG" {
		t.Errorf("Sequence = %q, want AMG (MSE reads as M)", got)
	}
}

func TestParseInsertionCodes(t *testing.T) {
	// Residues 52 and 52A are distinct positions (antibody numbering).
	in := `ATOM      1  CA  ALA A  52       0.000   0.000   0.000  1.00  0.00           C
ATOM      2  CA  GLY A  52A      3.800   0.000   0.000  1.00  0.00           C
ATOM      3  CA  TRP A  53       7.600   0.000   0.000  1.00  0.00           C
END
`
	s, err := Parse(strings.NewReader(in), "icode")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (insertion code makes 52A distinct)", s.Len())
	}
	if got := s.Sequence(); got != "AGW" {
		t.Errorf("Sequence = %q", got)
	}
}
