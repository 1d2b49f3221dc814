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

	"rckalign/internal/costmodel"
	"rckalign/internal/ss"
)

// ErrInvmapLength reports an invmap buffer whose length does not equal
// len2 — a kernel precondition violation. The aligners panic with an
// error wrapping this sentinel so a recovery boundary
// (tmalign.TryCompare) can surface it as a caller-visible error.
var ErrInvmapLength = errors.New("seqalign: invmap length must equal len2")

// Scorer returns the match score for aligning position i of chain 1 with
// position j of chain 2 (0-based).
type Scorer func(i, j int) float64

// Aligner holds reusable DP buffers for aligning chains up to a given
// size. It is not safe for concurrent use; each worker owns one.
type Aligner struct {
	val  []float64 // (len1+1) x (len2+1) DP values, row-major
	path []bool    // true = cell reached by a diagonal (match) move
	cols int
}

// NewAligner returns an Aligner with no pre-allocated capacity; buffers
// grow on first use.
func NewAligner() *Aligner { return &Aligner{} }

// growSlice extends s to length n, reallocating geometrically (at least
// 2x the previous capacity) so a sequence of calls with ascending sizes
// amortises to O(1) reallocations instead of one per new maximum.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	return make([]T, n, c)
}

func (a *Aligner) grow(len1, len2 int) {
	n := (len1 + 1) * (len2 + 1)
	a.val = growSlice(a.val, n)
	a.path = growSlice(a.path, n)
	a.cols = len2 + 1
}

// Align runs global DP over a len1 x len2 score matrix with the given
// (negative) gap-opening penalty and writes the resulting alignment into
// invmap: invmap[j] = i if position j of chain 2 is aligned to position i
// of chain 1, else -1. invmap must have length len2. ops (optional, may
// be nil) is charged len1*len2 DP cells.
//
// The recurrence and traceback replicate TM-align's NWDP_TM: a gap costs
// gapOpen only when the previous cell was reached by a match move, and
// ties prefer the diagonal, then the vertical (j-1) move.
func (a *Aligner) Align(len1, len2 int, score Scorer, gapOpen float64, invmap []int, ops *costmodel.Counter) {
	if len(invmap) != len2 {
		panic(fmt.Errorf("%w (Align: %d vs %d)", ErrInvmapLength, len(invmap), len2))
	}
	a.grow(len1, len2)
	cols := a.cols
	val, path := a.val, a.path

	for i := 0; i <= len1; i++ {
		val[i*cols] = 0
		path[i*cols] = false
	}
	for j := 0; j <= len2; j++ {
		val[j] = 0
		path[j] = false
	}

	for i := 1; i <= len1; i++ {
		row := i * cols
		prev := row - cols
		for j := 1; j <= len2; j++ {
			d := val[prev+j-1] + score(i-1, j-1)
			h := val[prev+j]
			if path[prev+j] {
				h += gapOpen
			}
			v := val[row+j-1]
			if path[row+j-1] {
				v += gapOpen
			}
			if d >= h && d >= v {
				path[row+j] = true
				val[row+j] = d
			} else {
				path[row+j] = false
				if v >= h {
					val[row+j] = v
				} else {
					val[row+j] = h
				}
			}
		}
	}
	ops.AddDP(len1 * len2)

	a.traceback(len1, len2, gapOpen, invmap)
}

// AlignMatrix is Align over a dense row-major len1 x len2 score matrix
// instead of a Scorer callback. It produces exactly the same alignment
// and DP values as Align with score(i, j) = mat[i*len2+j]; the inner
// loop reads the matrix row directly and carries the left/diagonal DP
// cells in registers, so per-cell work has no function call, no
// multiplication for indexing and no bounds checks. This is the hot
// path of the TM-align DP refinement loop, where the score matrix is
// precomputed from distances anyway.
func (a *Aligner) AlignMatrix(len1, len2 int, mat []float64, gapOpen float64, invmap []int, ops *costmodel.Counter) {
	if len(invmap) != len2 {
		panic(fmt.Errorf("%w (AlignMatrix: %d vs %d)", ErrInvmapLength, len(invmap), len2))
	}
	if len1 > 0 && len2 > 0 {
		_ = mat[len1*len2-1] // one bounds check up front for the whole fill
	}
	a.grow(len1, len2)
	cols := a.cols
	val, path := a.val, a.path

	for i := 0; i <= len1; i++ {
		val[i*cols] = 0
		path[i*cols] = false
	}
	for j := 0; j <= len2; j++ {
		val[j] = 0
		path[j] = false
	}

	for i := 1; i <= len1; i++ {
		rowVal := val[i*cols : i*cols+cols]
		rowPath := path[i*cols : i*cols+cols]
		prevVal := val[(i-1)*cols : i*cols]
		prevPath := path[(i-1)*cols : i*cols]
		srow := mat[(i-1)*len2 : (i-1)*len2+len2]
		vdiag := prevVal[0] // val[prev + (j-1)]
		vleft := rowVal[0]  // val[row + (j-1)]
		pleft := rowPath[0]
		for j := 1; j <= len2; j++ {
			d := vdiag + srow[j-1]
			h := prevVal[j]
			if prevPath[j] {
				h += gapOpen
			}
			v := vleft
			if pleft {
				v += gapOpen
			}
			var cur float64
			var curDiag bool
			if d >= h && d >= v {
				curDiag = true
				cur = d
			} else {
				if v >= h {
					cur = v
				} else {
					cur = h
				}
			}
			rowVal[j] = cur
			rowPath[j] = curDiag
			vdiag = prevVal[j]
			vleft = cur
			pleft = curDiag
		}
	}
	ops.AddDP(len1 * len2)

	a.traceback(len1, len2, gapOpen, invmap)
}

// traceback recovers the NWDP_TM alignment from the filled val/path
// tables into invmap (shared by Align and AlignMatrix; tie-breaking
// prefers the diagonal, then the vertical move, as in the reference).
func (a *Aligner) traceback(len1, len2 int, gapOpen float64, invmap []int) {
	cols := a.cols
	val, path := a.val, a.path
	for j := range invmap {
		invmap[j] = -1
	}
	i, j := len1, len2
	for i > 0 && j > 0 {
		if path[i*cols+j] {
			invmap[j-1] = i - 1
			i--
			j--
		} else {
			h := val[(i-1)*cols+j]
			if path[(i-1)*cols+j] {
				h += gapOpen
			}
			v := val[i*cols+j-1]
			if path[i*cols+j-1] {
				v += gapOpen
			}
			if v >= h {
				j--
			} else {
				i--
			}
		}
	}
}

// AlignSS aligns two secondary structure strings (score 1 for identical
// classes, 0 otherwise) with TM-align's gap opening of -1.
func (a *Aligner) AlignSS(sec1, sec2 []ss.Type, invmap []int, ops *costmodel.Counter) {
	a.Align(len(sec1), len(sec2), func(i, j int) float64 {
		if sec1[i] == sec2[j] {
			return 1
		}
		return 0
	}, -1.0, invmap, ops)
}

// Score returns the total DP score of the final alignment stored in
// invmap under the given scorer (gaps score 0, matching NWDP_TM's model
// of free extension after opening; opening penalties are not recomputed).
func Score(invmap []int, score Scorer) float64 {
	var s float64
	for j, i := range invmap {
		if i >= 0 {
			s += score(i, j)
		}
	}
	return s
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
	if minOverlap < 1 {
		minOverlap = 1
	}
	if minOverlap > len1 || minOverlap > len2 {
		return
	}
	// Within the offset range the overlap window [lo, hi) always holds at
	// least minOverlap pairs (min(len1-k, len2+k, len1, len2) >= minOverlap
	// follows from the range bounds); the guard below is kept as a
	// defensive invariant check only.
	for k := -(len2 - minOverlap); k <= len1-minOverlap; k++ {
		lo := 0
		if k < 0 {
			lo = -k
		}
		hi := len2
		if len1-k < hi {
			hi = len1 - k
		}
		if hi-lo >= minOverlap {
			visit(k, lo, hi)
		}
	}
}
