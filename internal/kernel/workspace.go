// Package kernel provides the per-worker scratch workspace shared by the
// TM-align numeric kernels (geom, tmscore, seqalign, tmalign).
//
// The kernels' hot loops — the TM-score fragment search, the NW DP
// rows, the Kabsch superposition — all need O(n) and O(n^2) scratch.
// Allocating it per call puts hundreds of allocations on the path of a
// single pairwise comparison; a Workspace owns every buffer once and is
// reused across comparisons by the worker that holds it. Workspaces are
// not safe for concurrent use: each host worker goroutine checks one out
// of the package pool (Get/Put) or owns one outright.
//
// Buffer groups are segregated by kernel layer so a caller that is
// mid-flight in one layer can invoke the next without aliasing its own
// scratch: tmalign owns the Pair*/Mat buffers, tmscore.Params.SearchWS
// owns the Search* buffers, and geom/seqalign take explicit slices.
package kernel

import (
	"sync"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/seqalign"
)

// Workspace holds reusable kernel scratch. The zero value is ready to
// use; buffers grow geometrically and are never shrunk.
type Workspace struct {
	// PairX/PairY/PairT and the int/float companions are the tmalign
	// comparison layer's scratch: gathered aligned pairs (PairCols as
	// columns), transformed coordinates, per-pair squared distances and
	// candidate alignments. R1, R2 and Dis2 hold two fast-score lanes.
	PairX, PairY, PairT []geom.Vec3
	R1, R2              []geom.Vec3
	Dis2, PairCols      []float64
	// InvTmp holds innermost candidate alignments, InvSeed the current
	// initial alignment under refinement, InvDP the DP loop's best, and
	// InvBest the best alignment across all initials.
	InvTmp, InvSeed, InvDP, InvBest []int

	// Mat is the xlen x ylen score matrix of the gapped DP rounds
	// (dpIter's gap open -0.6, get_initial_ssplus). A gap-free round
	// folds its terms straight into the aligner's value table and never
	// touches it, unless a non-finite coordinate holds the round on the
	// general path.
	Mat []float64

	// SearchCols/SearchR1/SearchR2/SearchDis2/SearchSet are the TM-score
	// rotation search's private scratch (tmscore.SearchWS): both chains as
	// columns, the gathered pairs of its two walks (n each), dis2 and the
	// bitset of the pairs its last scoring pass collected.
	// They are distinct from the pair buffers because the search runs
	// while the comparison layer's own buffers hold live data.
	SearchR1, SearchR2     []geom.Vec3
	SearchCols, SearchDis2 []float64
	SearchSet              []int32

	// The compare-scoped memo tables (DESIGN.md §17). SearchGraph belongs
	// to one SearchWS call, the rest to one comparison, which resets them
	// at entry: a comparison that panicked leaves nothing behind.
	// Searched is keyed by alignment (staged in AlignKey), DPRounds by
	// (rotation bits, gap setting) with round id's alignment at
	// DPInvmaps[id*ylen:], and Diagonals is indexed by gapless offset +
	// ylen.
	SearchGraph Table[SearchNode]
	Searched    Table[SearchedAlignment]
	DPRounds    Table[costmodel.Counter]
	DPInvmaps   []int
	Diagonals   []DiagonalScore
	AlignKey    []int32

	// nw is the worker's DP aligner (its own val/path tables),
	// created on first use via Aligner.
	nw *seqalign.Aligner
}

// Aligner returns the workspace's reusable DP aligner, creating it on
// first use.
func (w *Workspace) Aligner() *seqalign.Aligner {
	if w.nw == nil {
		w.nw = seqalign.NewAligner()
	}
	return w.nw
}

// grow returns s extended to length n, reallocating geometrically (at
// least 2x the previous capacity) so ascending problem sizes do not
// reallocate per call.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// ReservePairs sizes the comparison-layer buffers for chains of up to n
// residues each.
func (w *Workspace) ReservePairs(n int) {
	w.PairX = grow(w.PairX, n)
	w.PairY = grow(w.PairY, n)
	w.PairT = grow(w.PairT, n)
	w.PairCols = grow(w.PairCols, 6*n)
	w.R1 = grow(w.R1, 2*n)
	w.R2 = grow(w.R2, 2*n)
	w.Dis2 = grow(w.Dis2, 2*n)
	w.InvTmp = grow(w.InvTmp, n)
	w.InvSeed = grow(w.InvSeed, n)
	w.InvDP = grow(w.InvDP, n)
	w.InvBest = grow(w.InvBest, n)
}

// ReserveMat sizes the score matrix for an xlen x ylen problem.
func (w *Workspace) ReserveMat(cells int) {
	w.Mat = grow(w.Mat, cells)
}

// ReserveSearch sizes the TM-score search scratch for alignments of up
// to n pairs.
func (w *Workspace) ReserveSearch(n int) {
	w.SearchCols = grow(w.SearchCols, 6*n)
	w.SearchR1 = grow(w.SearchR1, 2*n)
	w.SearchR2 = grow(w.SearchR2, 2*n)
	w.SearchDis2 = grow(w.SearchDis2, n)
	w.SearchSet = grow(w.SearchSet, (n+31)/32)
}

// ReserveMemo empties the comparison-layer memo tables and sizes them
// for chains of xlen and ylen residues.
func (w *Workspace) ReserveMemo(xlen, ylen int) {
	w.Searched.Reset(MemoWords)
	w.DPRounds.Reset(MemoWords)
	w.DPInvmaps = w.DPInvmaps[:0]
	w.Diagonals = grow(w.Diagonals, xlen+ylen)
	clear(w.Diagonals)
	w.AlignKey = grow(w.AlignKey, ylen)
}

var pool = sync.Pool{New: func() any { return new(Workspace) }}

// Get checks a Workspace out of the package pool. Pair it with Put once
// the comparison completes; a workspace that is never Put is simply
// garbage collected.
func Get() *Workspace { return pool.Get().(*Workspace) }

// Put returns a workspace to the pool. The caller must not retain any
// slice of it afterwards.
func Put(w *Workspace) { pool.Put(w) }
