// Package pdb implements the subset of the Protein Data Bank file format
// needed for protein structure comparison: parsing ATOM records into a CA
// (alpha-carbon) trace for the first chain of the first model, and writing
// structures back out. This mirrors how the paper's datasets were prepared
// ("the first chain of the first model" of each entry).
package pdb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"rckalign/internal/geom"
)

// Residue is one amino acid position in a chain, reduced to the fields the
// comparison algorithms consume.
type Residue struct {
	// Seq is the residue sequence number from the PDB file.
	Seq int
	// Name is the three-letter residue name (e.g. "ALA").
	Name string
	// AA is the one-letter amino acid code derived from Name.
	AA byte
	// CA is the position of the alpha carbon.
	CA geom.Vec3
}

// Structure is a single-chain protein structure: an ordered CA trace.
type Structure struct {
	// ID names the structure (file stem or synthetic identifier).
	ID string
	// Chain is the chain identifier the trace was taken from.
	Chain byte
	// Residues holds the ordered CA trace.
	Residues []Residue
}

// Len returns the number of residues.
func (s *Structure) Len() int { return len(s.Residues) }

// CAs returns the CA coordinates as a freshly allocated slice.
func (s *Structure) CAs() []geom.Vec3 {
	pts := make([]geom.Vec3, len(s.Residues))
	for i, r := range s.Residues {
		pts[i] = r.CA
	}
	return pts
}

// Sequence returns the one-letter amino acid sequence.
func (s *Structure) Sequence() string {
	var b strings.Builder
	b.Grow(len(s.Residues))
	for _, r := range s.Residues {
		b.WriteByte(r.AA)
	}
	return b.String()
}

// Clone returns a deep copy of the structure.
func (s *Structure) Clone() *Structure {
	c := &Structure{ID: s.ID, Chain: s.Chain, Residues: make([]Residue, len(s.Residues))}
	copy(c.Residues, s.Residues)
	return c
}

// threeToOne maps three-letter residue names to one-letter codes,
// following the TM-align convention (non-standard residues map to 'X').
var threeToOne = map[string]byte{
	"ALA": 'A', "ARG": 'R', "ASN": 'N', "ASP": 'D', "CYS": 'C',
	"GLN": 'Q', "GLU": 'E', "GLY": 'G', "HIS": 'H', "ILE": 'I',
	"LEU": 'L', "LYS": 'K', "MET": 'M', "PHE": 'F', "PRO": 'P',
	"SER": 'S', "THR": 'T', "TRP": 'W', "TYR": 'Y', "VAL": 'V',
	"MSE": 'M', "ASX": 'B', "GLX": 'Z', "UNK": 'X',
}

var oneToThree = map[byte]string{}

func init() {
	for k, v := range threeToOne {
		if _, dup := oneToThree[v]; !dup {
			oneToThree[v] = k
		}
	}
	// Prefer the canonical names over alternates for the reverse map.
	oneToThree['M'] = "MET"
}

// OneLetter converts a three-letter residue name to its one-letter code.
// Unknown names yield 'X'.
func OneLetter(name string) byte {
	if c, ok := threeToOne[strings.ToUpper(strings.TrimSpace(name))]; ok {
		return c
	}
	return 'X'
}

// ThreeLetter converts a one-letter amino acid code to a three-letter
// residue name. Unknown codes yield "UNK".
func ThreeLetter(aa byte) string {
	if n, ok := oneToThree[aa]; ok {
		return n
	}
	return "UNK"
}

// ParseError describes a malformed record encountered while parsing.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("pdb: line %d: %s", e.Line, e.Msg) }

// Parse reads a PDB stream and extracts the CA trace of the first chain of
// the first model, the same preprocessing the paper applies to its
// datasets. Records after ENDMDL or after the chain's TER are ignored.
// Alternate locations other than ' ' or 'A' are skipped, as are duplicate
// CA records for a residue already seen.
func Parse(r io.Reader, id string) (*Structure, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	s := &Structure{ID: id}
	var (
		chainSet  bool
		lastSeq   = int(^uint(0) >> 1) // sentinel: no residue yet
		lastICode byte
		haveLast  bool
		lineNo    int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if len(line) < 6 {
			continue
		}
		rec := line[:6]
		switch {
		case rec == "ENDMDL":
			// First model only.
			return finish(s)
		case strings.HasPrefix(rec, "TER"):
			if chainSet {
				return finish(s)
			}
		case rec == "ATOM  " || rec == "HETATM":
			if len(line) < 54 {
				return nil, &ParseError{lineNo, "ATOM record too short"}
			}
			resName := strings.TrimSpace(line[17:20])
			if rec == "HETATM" && resName != "MSE" {
				// Only selenomethionine is treated as part of the chain
				// (as TM-align does); other heteroatoms are ligands.
				continue
			}
			name := strings.TrimSpace(line[12:16])
			if name != "CA" {
				continue
			}
			alt := line[16]
			if alt != ' ' && alt != 'A' {
				continue
			}
			chain := line[21]
			if !chainSet {
				s.Chain = chain
				chainSet = true
			} else if chain != s.Chain {
				// A new chain began without TER: stop at first chain.
				return finish(s)
			}
			seq, err := strconv.Atoi(strings.TrimSpace(line[22:26]))
			if err != nil {
				return nil, &ParseError{lineNo, "bad residue sequence number"}
			}
			icode := byte(' ')
			if len(line) > 26 {
				icode = line[26]
			}
			if haveLast && seq == lastSeq && icode == lastICode {
				continue // duplicate CA (e.g. altloc variants)
			}
			var ca geom.Vec3 // columns 31-38, 39-46 and 47-54
			for k := range ca {
				if ca[k], err = strconv.ParseFloat(strings.TrimSpace(line[30+8*k:38+8*k]), 64); err != nil {
					return nil, &ParseError{lineNo, "bad " + "xyz"[k:k+1] + " coordinate"}
				}
			}
			s.Residues = append(s.Residues, Residue{Seq: seq, Name: resName, AA: OneLetter(resName), CA: ca})
			lastSeq = seq
			lastICode = icode
			haveLast = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pdb: read: %w", err)
	}
	return finish(s)
}

func finish(s *Structure) (*Structure, error) {
	if len(s.Residues) == 0 {
		return nil, fmt.Errorf("pdb: %s: no CA atoms found", s.ID)
	}
	return s, nil
}

// ParseFile parses the PDB file at path. The structure ID is the file name
// without directory or extension.
func ParseFile(path string) (*Structure, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return Parse(f, base)
}

// Write emits the structure as minimal PDB ATOM records (CA only),
// terminated by TER and END. The output round-trips through Parse.
func Write(w io.Writer, s *Structure) error {
	bw := bufio.NewWriter(w)
	chain := s.Chain
	if chain == 0 {
		chain = 'A'
	}
	for i, r := range s.Residues {
		name := r.Name
		if name == "" {
			name = ThreeLetter(r.AA)
		}
		_, err := fmt.Fprintf(bw, "ATOM  %5d  CA  %-3s %c%4d    %8.3f%8.3f%8.3f  1.00  0.00           C\n",
			i+1, name, chain, r.Seq, r.CA[0], r.CA[1], r.CA[2])
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "TER\nEND\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the structure to a PDB file at path.
func WriteFile(path string, s *Structure) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FromCAs builds a Structure from a CA trace and a one-letter sequence.
// If seq is shorter than pts the remainder is filled with 'A'.
func FromCAs(id string, pts []geom.Vec3, seq string) *Structure {
	s := &Structure{ID: id, Chain: 'A', Residues: make([]Residue, len(pts))}
	for i, p := range pts {
		aa := byte('A')
		if i < len(seq) {
			aa = seq[i]
		}
		s.Residues[i] = Residue{Seq: i + 1, Name: ThreeLetter(aa), AA: aa, CA: p}
	}
	return s
}
