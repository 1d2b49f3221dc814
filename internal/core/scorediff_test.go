package core

import (
	"bufio"
	"encoding/gob"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// The score-diff report says what a kernel change did to a set of pair
// results. The exact gates (TestKernelMatchesPairCache, cmd/rckalign's
// rows against the CK34 golden and the pair cache) only say that something moved; the
// report says which pairs moved and in which digit, by how much, whether
// a mean TM crossed a prune threshold, and whether the op counts, the
// simulated bill bench/expected replays, moved with them.

var scoreDiffFiles = flag.String("scorediff", "", "OLD,NEW: print the score-diff report of two pair caches (.gob) or -scores-out files")

// tmTolerance labels a TM move as rounding: inside it the same terms were
// summed along the same search path, outside it the path changed. The
// gates stay exact; the tolerance only sorts a diff. Each term moves by at
// most 5 ulps, 5·2^-52 of itself (geom's termULPs), so the exact sum of a
// score's n terms moves by at most 5·2^-52 of that sum. Each side's
// in-order sum carries at most (n-1)·2^-53 of it in rounding error and its
// division by the length 2^-53 more, so a TM score in [0, 1] moves by at
// most (n+5)·2^-52. n is at most the shorter chain, under tolChain in
// every dataset (CK34 219, RS119 390 residues). RMSD, SeqID, the aligned
// length and the op counts take no TM term, so their tolerance is zero.
const (
	tolChain    = 512
	tmTolerance = (tolChain + 5) * 0x1p-52
)

// diffThresholds are the mean-TM prune thresholds a move must not cross.
var diffThresholds = [...]float64{0.3, 0.4, 0.5, 0.6, 0.7}

// scoreSet is one side of a diff, results by pair in canonical order. ops
// is false for a -scores-out file, which carries no op counts.
type scoreSet struct {
	pairs   []sched.Pair
	results []*tmalign.Result
	ops     bool
}

func pairScoreSet(pr *PairResults) scoreSet { return scoreSet{pr.Pairs, pr.Results, true} }

// readScoreSet reads a pair cache file (a .gob path, any kernel, whole
// or partial) or a -scores-out file.
func readScoreSet(path string) (scoreSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return scoreSet{}, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gob") {
		var cf cacheFile[tmalign.Result]
		if err := gob.NewDecoder(f).Decode(&cf); err != nil {
			return scoreSet{}, fmt.Errorf("%s: %w", path, err)
		}
		s := scoreSet{ops: true}
		all := sched.AllVsAll(len(cf.Names))
		for k, slot := range cf.Slots {
			s.pairs, s.results = append(s.pairs, all[slot]), append(s.results, &cf.Results[k])
		}
		return s, nil
	}
	var s scoreSet
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var p sched.Pair
		r := new(tmalign.Result)
		if _, err := fmt.Sscan(sc.Text(), &p.I, &p.J, &r.TM1, &r.TM2, &r.RMSD, &r.AlignedLen, &r.SeqID); err != nil {
			return scoreSet{}, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
		}
		s.pairs, s.results = append(s.pairs, p), append(s.results, r)
	}
	return s, sc.Err()
}

// fieldMove is one score of one pair that moved; digit is the first of
// the 17 significant digits (-scores-out's %.17g) at which the two values
// differ.
type fieldMove struct {
	name  string
	a, b  float64
	digit int
}

func movedDigit(a, b float64) int {
	sa, sb := strconv.FormatFloat(a, 'e', 16, 64), strconv.FormatFloat(b, 'e', 16, 64)
	if sa[strings.IndexByte(sa, 'e'):] != sb[strings.IndexByte(sb, 'e'):] {
		return 1
	}
	d := 0
	for k := range sa {
		if sa[k] != '.' {
			d++
		}
		if sa[k] != sb[k] {
			break
		}
	}
	return d
}

// pairMove is one pair whose result moved.
type pairMove struct {
	p       sched.Pair
	fields  []fieldMove
	aligned [2]int // when the aligned length moved
	ops     bool
}

// scoreDiff is the report of diffScores.
type scoreDiff struct {
	name                    string
	pairs, missing          int
	moved                   []pairMove
	outside                 int
	maxTM1, maxTM2, maxRMSD float64
	digits                  map[int]int // first moved digit -> pairs
	flips                   []string
	closest                 float64 // nearest a moved mean TM came to a threshold
	alignedMoved, opsMoved  int
	opsOld, opsNew          string // op totals over the compared pairs, when they differ
	opsCompared             bool
}

// diffScores compares new against old over the pairs old holds.
func diffScores(name string, old, new scoreSet) *scoreDiff {
	d := &scoreDiff{name: name, digits: map[int]int{}, closest: math.Inf(1), opsCompared: old.ops && new.ops}
	index := make(map[sched.Pair]*tmalign.Result, len(new.pairs))
	for k, p := range new.pairs {
		index[p] = new.results[k]
	}
	var opsOld, opsNew costmodel.Counter
	for k, p := range old.pairs {
		a, b := old.results[k], index[p]
		if b == nil {
			d.missing++
			continue
		}
		d.pairs++
		m, outside := pairMove{p: p}, false
		for _, f := range []struct {
			name string
			a, b float64
			max  *float64
			tol  float64
		}{{"TM1", a.TM1, b.TM1, &d.maxTM1, tmTolerance}, {"TM2", a.TM2, b.TM2, &d.maxTM2, tmTolerance}, {"RMSD", a.RMSD, b.RMSD, &d.maxRMSD, 0}, {"SeqID", a.SeqID, b.SeqID, nil, 0}} {
			if math.Float64bits(f.a) == math.Float64bits(f.b) {
				continue
			}
			delta := math.Abs(f.b - f.a)
			if f.max != nil {
				*f.max = max(*f.max, delta)
			}
			outside = outside || !(delta <= f.tol)
			m.fields = append(m.fields, fieldMove{f.name, f.a, f.b, movedDigit(f.a, f.b)})
		}
		if a.AlignedLen != b.AlignedLen {
			m.aligned, outside = [2]int{a.AlignedLen, b.AlignedLen}, true
			d.alignedMoved++
		}
		if d.opsCompared {
			opsOld.Add(a.Ops)
			opsNew.Add(b.Ops)
			if a.Ops != b.Ops {
				m.ops, outside = true, true
				d.opsMoved++
			}
		}
		for _, t := range diffThresholds {
			if (a.TM() >= t) != (b.TM() >= t) {
				d.flips = append(d.flips, fmt.Sprintf("pair %d-%d at T=%.1f: mean TM %.17g -> %.17g", p.I, p.J, t, a.TM(), b.TM()))
			}
		}
		if m.fields == nil && !m.ops && m.aligned == [2]int{} {
			continue
		}
		for _, t := range diffThresholds {
			d.closest = min(d.closest, math.Abs(a.TM()-t), math.Abs(b.TM()-t))
		}
		if len(m.fields) > 0 {
			first := 17
			for _, f := range m.fields {
				first = min(first, f.digit)
			}
			d.digits[first]++
		}
		if outside {
			d.outside++
		}
		d.moved = append(d.moved, m)
	}
	if opsOld != opsNew {
		d.opsOld, d.opsNew = opsOld.String(), opsNew.String()
	}
	return d
}

// diffListed is how many moved pairs String lists one by one.
const diffListed = 20

func (d *scoreDiff) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d pairs compared, %d moved (%d outside the tolerance: |ΔTM| > %.3g, or any RMSD, SeqID, aligned-length or op-count move)", d.name, d.pairs, len(d.moved), d.outside, tmTolerance)
	if d.missing > 0 {
		fmt.Fprintf(&b, ", %d missing from the new side", d.missing)
	}
	fmt.Fprintf(&b, "\n  max |ΔTM1| %.3g, max |ΔTM2| %.3g, max |ΔRMSD| %.3g\n", d.maxTM1, d.maxTM2, d.maxRMSD)
	fmt.Fprintf(&b, "  mean-TM flips at T in %v: %d", diffThresholds, len(d.flips))
	if len(d.moved) > 0 {
		fmt.Fprintf(&b, " (closest moved mean TM: %.2g from a threshold)", d.closest)
	}
	for _, f := range d.flips {
		fmt.Fprintf(&b, "\n    %s", f)
	}
	fmt.Fprintf(&b, "\n  aligned length moved on %d pairs", d.alignedMoved)
	if d.opsCompared {
		fmt.Fprintf(&b, ", op counts on %d", d.opsMoved)
		if d.opsOld != "" {
			fmt.Fprintf(&b, " (totals %s -> %s)", d.opsOld, d.opsNew)
		}
	}
	b.WriteString("\n  first moved digit:")
	for k := 1; k <= 17; k++ {
		if n := d.digits[k]; n > 0 {
			fmt.Fprintf(&b, " %d: %d pairs;", k, n)
		}
	}
	for k, m := range d.moved {
		if k == diffListed {
			fmt.Fprintf(&b, "\n  ... and %d more", len(d.moved)-diffListed)
			break
		}
		fmt.Fprintf(&b, "\n  pair %d-%d:", m.p.I, m.p.J)
		for _, f := range m.fields {
			fmt.Fprintf(&b, " %s digit %d %.17g -> %.17g;", f.name, f.digit, f.a, f.b)
		}
		if m.aligned != [2]int{} {
			fmt.Fprintf(&b, " aligned %d -> %d;", m.aligned[0], m.aligned[1])
		}
		if m.ops {
			b.WriteString(" ops moved;")
		}
	}
	return b.String()
}

// TestScoreDiffFiles prints the report of the two files -scorediff names,
// for a kernel change's description:
//
//	go test ./internal/core -run TestScoreDiffFiles -v -scorediff OLD,NEW
//
// (paths relative to internal/core, or absolute).
func TestScoreDiffFiles(t *testing.T) {
	if *scoreDiffFiles == "" {
		t.Skip("no -scorediff OLD,NEW")
	}
	paths := strings.Split(*scoreDiffFiles, ",")
	if len(paths) != 2 {
		t.Fatalf("-scorediff %q: want OLD,NEW", *scoreDiffFiles)
	}
	var sets [2]scoreSet
	for k, p := range paths {
		s, err := readScoreSet(p)
		if err != nil {
			t.Fatal(err)
		}
		sets[k] = s
	}
	t.Log("\n" + diffScores(*scoreDiffFiles, sets[0], sets[1]).String())
}

// TestScoreDiffReport runs the report on the CK34 pair cache against
// copies with planted moves: a TM1 one ulp up (about the move a last-bit
// change in one term causes), a mean TM that falls below 0.5 by one ulp,
// an op count and an aligned length. Each must be named with its pair, the
// untouched pairs must not be, and a round trip through -scores-out files
// must report the same score moves without the op counts.
func TestScoreDiffReport(t *testing.T) {
	pr, err := LoadPairResults(synth.CK34(), filepath.Join("..", "..", "testdata", "paircache", "CK34.gob"))
	if err != nil {
		t.Fatal(err)
	}
	old, new := pairScoreSet(pr), pairScoreSet(pr)
	old.results, new.results = make([]*tmalign.Result, len(pr.Results)), make([]*tmalign.Result, len(pr.Results))
	for k, r := range pr.Results {
		a, b := *r, *r
		old.results[k], new.results[k] = &a, &b
	}
	plant := func(k int, move func(a, b *tmalign.Result)) string {
		move(old.results[k], new.results[k])
		return fmt.Sprintf("pair %d-%d:", pr.Pairs[k].I, pr.Pairs[k].J)
	}
	lastBit := plant(3, func(a, b *tmalign.Result) { a.TM1, b.TM1 = 0.1, math.Nextafter(0.1, 1) })
	below := math.Nextafter(0.5, 0)
	flip := plant(40, func(a, b *tmalign.Result) { a.TM1, a.TM2, b.TM1, b.TM2 = 0.5, 0.5, below, below })
	ops := plant(200, func(_, b *tmalign.Result) { b.Ops.DPCells++ })
	aligned := plant(300, func(_, b *tmalign.Result) { b.AlignedLen-- })

	d := diffScores("planted", old, new)
	report := d.String()
	for _, want := range []string{
		lastBit + " TM1 digit 17 0.10000000000000001 -> 0.10000000000000002;",
		flip + " TM1 digit 1 0.5 -> 0.49999999999999994; TM2 digit 1 0.5 -> 0.49999999999999994;",
		flip[:len(flip)-1] + " at T=0.5: mean TM 0.5 -> 0.49999999999999994",
		ops + " ops moved;",
		aligned + fmt.Sprintf(" aligned %d -> %d;", pr.Results[300].AlignedLen, pr.Results[300].AlignedLen-1),
		"561 pairs compared, 4 moved (2 outside",
		"mean-TM flips at T in [0.3 0.4 0.5 0.6 0.7]: 1",
		"aligned length moved on 1 pairs, op counts on 1 (totals",
		"first moved digit: 1: 1 pairs; 17: 1 pairs;",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if d.maxTM1 != 0.5-below || d.maxTM2 != 0.5-below || d.maxRMSD != 0 {
		t.Errorf("max |ΔTM1| %g, |ΔTM2| %g, |ΔRMSD| %g", d.maxTM1, d.maxTM2, d.maxRMSD)
	}

	dir := t.TempDir()
	var paths [2]string
	for s, set := range []scoreSet{old, new} {
		var buf []byte
		for k, p := range set.pairs {
			buf = tmalign.AppendScoreLine(buf, p.I, p.J, set.results[k])
		}
		paths[s] = filepath.Join(dir, fmt.Sprintf("scores%d.txt", s))
		if err := os.WriteFile(paths[s], buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldText, err := readScoreSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	newText, err := readScoreSet(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	text := diffScores("planted", oldText, newText).String()
	if strings.Contains(text, "ops moved") || strings.Contains(text, "op counts") ||
		!strings.Contains(text, "561 pairs compared, 3 moved") || !strings.Contains(text, lastBit+" TM1 digit 17") {
		t.Errorf("-scores-out report:\n%s", text)
	}
}
