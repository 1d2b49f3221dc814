// Package seqalign implements the Needleman–Wunsch dynamic programming
// variants used by TM-align: global alignment with a gap-opening penalty
// (free extension) over an arbitrary position score matrix, the secondary
// structure variant, and gapless threading. The DP follows TM-align's
// NWDP_TM exactly, including its traceback tie-breaking, so alignments
// match the reference algorithm.
package seqalign

import (
	"errors"
	"fmt"
	"math"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/ss"
)

// ErrInvmapLength reports an invmap buffer whose length does not equal
// len2 — a kernel precondition violation. The aligners panic with an
// error wrapping this sentinel so a recovery boundary
// (tmalign.TryCompare) can surface it as a caller-visible error.
var ErrInvmapLength = errors.New("seqalign: invmap length must equal len2")

// Aligner holds reusable DP buffers for aligning chains up to a given
// size. It is not safe for concurrent use; each worker owns one.
type Aligner struct {
	val  []float64 // (len1+1) x (len2+1) DP values, row-major; AlignGapFree's geom.QuadCell table
	path []bool    // true = cell reached by a diagonal (match) move
}

// NewAligner returns an Aligner with no pre-allocated capacity; buffers
// grow on first use.
func NewAligner() *Aligner { return &Aligner{} }

// growSlice extends s to length n, reallocating geometrically (at least
// 2x the previous capacity) so a sequence of calls with ascending sizes
// amortises to O(1) reallocations instead of one per new maximum.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

func (a *Aligner) grow(len1, len2 int) {
	n := (len1 + 1) * (len2 + 1)
	a.val = growSlice(a.val, n)
	a.path = growSlice(a.path, n)
}

// AlignMatrix runs global DP over a dense row-major len1 x len2 score
// matrix with the given (negative) gap-opening penalty and writes the
// resulting alignment into invmap: invmap[j] = i if position j of chain 2
// is aligned to position i of chain 1, else -1. invmap must have length
// len2. ops (optional, may be nil) is charged len1*len2 DP cells.
//
// The recurrence and traceback replicate TM-align's NWDP_TM: a gap costs
// gapOpen only when the previous cell was reached by a match move, and
// ties prefer the diagonal, then the vertical (j-1) move. The inner loop
// reads the matrix row directly and carries the left/diagonal DP cells
// in registers, so per-cell work has no function call, no multiplication
// for indexing and no bounds checks; the tests hold it to the literal
// recurrence over a score callback, cell by cell.
func (a *Aligner) AlignMatrix(len1, len2 int, mat []float64, gapOpen float64, invmap []int, ops *costmodel.Counter) {
	if len(invmap) != len2 {
		panic(fmt.Errorf("%w (AlignMatrix: %d vs %d)", ErrInvmapLength, len(invmap), len2))
	}
	if len1 > 0 && len2 > 0 {
		_ = mat[len1*len2-1] // one bounds check up front for the whole fill
	}
	a.grow(len1, len2)
	cols := len2 + 1
	val, path := a.val, a.path
	for i := 0; i <= len1; i++ {
		val[i*cols], path[i*cols] = 0, false
	}
	clear(val[:cols])
	clear(path[:cols])

	// gap[bit(path)] is the cost of a gap move out of a cell: gapOpen
	// after a match move, else -0. Adding -0 returns any value a cell can
	// hold (+0 included) unchanged, so this equals the reference's
	// conditional add bit for bit. Indexing instead of branching keeps the
	// previous row's path, which predicts poorly, off the branches.
	gap := [2]float64{math.Copysign(0, -1), gapOpen}
	for i := 1; i <= len1; i++ {
		// Equal-length views of cells 1..len2 of this row, the row above
		// and the score row, so the inner loop has no bounds checks.
		srow := mat[(i-1)*len2 : i*len2]
		upVal := val[(i-1)*cols+1 : i*cols][:len(srow)]
		upPath := path[(i-1)*cols+1 : i*cols][:len(srow)]
		rowVal := val[i*cols+1 : (i+1)*cols][:len(srow)]
		rowPath := path[i*cols+1 : (i+1)*cols][:len(srow)]
		// The cells up-left and left of j; column 0 is zero, not diagonal.
		vdiag, vleft, pleft := 0.0, 0.0, false
		for j, s := range srow {
			d := vdiag + s
			vdiag = upVal[j]
			h := vdiag + gap[bit(upPath[j])]
			v := vleft + gap[bit(pleft)]
			// Written as the negation so a NaN score takes the gap branch,
			// exactly as the reference's d >= h && d >= v does. The
			// branches stay: a select here puts the row recurrence on the
			// latency path (DESIGN.md §17).
			pleft = true
			if !(d >= h && d >= v) {
				pleft = false
				d = h
				if v >= h {
					d = v
				}
			}
			rowVal[j] = d
			rowPath[j] = pleft
			vleft = d
		}
	}
	ops.AddDP(len1 * len2)

	a.traceback(len1, len2, gapOpen, invmap)
}

// AlignGapFree is AlignMatrix(len(xt), len2, mat, 0, invmap, ops) on
// the TM-score matrix mat[i*len2+j] = geom.Term of xt[i] against y[j],
// the fixed chain of len2 = len(yq)/12-6 residues interleaved in yq by
// geom.QuadMirror, without building mat: the terms go straight into the
// value table (geom.MaxPlusFill, laid out by geom.QuadCell in val), and
// the traceback recomputes the one term of each cell it visits.
//
// Alignment and DP values are AlignMatrix's bit for bit when every term
// is a number: coordinates finite, 0 < d02 < +Inf (DESIGN.md §16, "gap-free
// rounds are max-plus"). Then every score is in [+0, 1], a gap adds +0 or
// −0 to a value that is never −0, so the up and left candidates are those
// cells unchanged and each cell is the plain maximum of diagonal, up and
// left. The caller checks the coordinates.
func (a *Aligner) AlignGapFree(xt []geom.Vec3, yq []float64, d02 float64, invmap []int, ops *costmodel.Counter) {
	len1, len2 := len(xt), len(yq)/12-6
	if len(invmap) != len2 {
		panic(fmt.Errorf("%w (AlignGapFree: %d vs %d)", ErrInvmapLength, len(invmap), len2))
	}
	a.val = growSlice(a.val, geom.QuadCell(len1+4, 0, len2))
	val := a.val
	geom.MaxPlusFill(val, xt, yq, d02)
	ops.AddDP(len1 * len2)

	// NWDP_TM's traceback at gap open 0: the cell came diagonally iff
	// d >= up && d >= left, else from the left iff left >= up. A cell's
	// left neighbour is the slot before it, 4 values back.
	for j := range invmap {
		invmap[j] = -1
	}
	i, j := len1, len2
	for i > 0 && j > 0 {
		c, u := geom.QuadCell(i, j, len2), geom.QuadCell(i-1, j, len2)
		p, q := &xt[i-1], yq[12*j-12:12*j-3]
		if d := val[u-4] + geom.Term(p[0], p[1], p[2], q[0], q[4], q[8], d02); d >= val[u] && d >= val[c-4] {
			invmap[j-1] = i - 1
			i--
			j--
		} else if val[c-4] >= val[u] {
			j--
		} else {
			i--
		}
	}
}

// bit is 1 for true and 0 for false, masked so that indexing a
// two-entry table with it needs no bounds check.
func bit(b bool) (n int) {
	if b {
		n = 1
	}
	return n & 1
}

// traceback recovers the NWDP_TM alignment from the filled val/path
// tables into invmap (tie-breaking prefers the diagonal, then the
// vertical move, as in the reference), with AlignMatrix's gap costs.
func (a *Aligner) traceback(len1, len2 int, gapOpen float64, invmap []int) {
	cols, val, path := len2+1, a.val, a.path
	gap := [2]float64{math.Copysign(0, -1), gapOpen}
	for j := range invmap {
		invmap[j] = -1
	}
	i, j := len1, len2
	for i > 0 && j > 0 {
		if c := i*cols + j; path[c] {
			invmap[j-1] = i - 1
			i--
			j--
		} else if val[c-1]+gap[bit(path[c-1])] >= val[c-cols]+gap[bit(path[c-cols])] {
			j--
		} else {
			i--
		}
	}
}

// AlignSS aligns two secondary structure strings (score 1 for identical
// classes, 0 otherwise) with TM-align's gap opening of -1, building the
// score matrix in mat, which holds at least len(sec1)*len(sec2) cells.
func (a *Aligner) AlignSS(sec1, sec2 []ss.Type, mat []float64, invmap []int, ops *costmodel.Counter) {
	mat = mat[:len(sec1)*len(sec2)]
	for i, s1 := range sec1 {
		for j, s2 := range sec2 {
			mat[i*len(sec2)+j] = float64(bit(s1 == s2))
		}
	}
	a.AlignMatrix(len(sec1), len(sec2), mat, -1.0, invmap, ops)
}

// AlignedLen returns the number of aligned pairs in invmap.
func AlignedLen(invmap []int) int {
	n := 0
	for _, i := range invmap {
		if i >= 0 {
			n++
		}
	}
	return n
}

// IsMonotonic reports whether invmap is a valid global alignment: the
// aligned chain-1 indices are strictly increasing along j and within
// [0, len1).
func IsMonotonic(invmap []int, len1 int) bool {
	last := -1
	for _, i := range invmap {
		if i < 0 {
			continue
		}
		if i <= last || i >= len1 {
			return false
		}
		last = i
	}
	return true
}

// GaplessThreading enumerates all diagonal (ungapped) alignments of a
// chain of len1 against a chain of len2 and calls visit with each offset's
// overlap range. For offset k, chain-2 position j aligns to chain-1
// position j+k for j in [lo, hi). Offsets run from -(len2-minOverlap) to
// len1-minOverlap, and every visited alignment has at least minOverlap
// pairs.
//
// When minOverlap exceeds min(len1, len2), no diagonal of the two chains
// can contain minOverlap pairs, so visit is deliberately never called —
// the offset range formula alone would still enumerate offsets (it only
// guarantees each chain individually spans minOverlap positions, not
// that their overlap does), so this case returns early. Callers probing
// with a fixed fragment length rely on this zero-visit contract for
// chains shorter than the fragment.
func GaplessThreading(len1, len2, minOverlap int, visit func(k, lo, hi int)) {
	minOverlap = max(minOverlap, 1)
	if minOverlap > len1 || minOverlap > len2 {
		return
	}
	// Within the offset range the overlap window [lo, hi) holds
	// min(len1-k, len2+k, len1, len2) >= minOverlap pairs.
	for k := -(len2 - minOverlap); k <= len1-minOverlap; k++ {
		visit(k, max(0, -k), min(len2, len1-k))
	}
}
