package tmalign

import (
	"sync"

	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/prune"
)

// Prepared is everything the kernel derives from one chain, computed
// once for any number of comparisons. It is immutable: comparisons and
// pre-filter bounds on any number of goroutines share it and only read.
type Prepared struct {
	ID string
	CA []geom.Vec3
	// Features is prune.Extract's summary: its Sec is the secondary
	// structure the kernel aligns, its Seq the sequence SeqID counts.
	Features prune.Features
	soa      geom.Cols // CA as columns: ScoreRow's fixed chain, ScorePass's pairs
	quad     []float64 // geom.QuadMirror of CA, the gap-free rounds' fixed chain
	finite   bool      // every coordinate finite: half of alignRound's guard
	err      error     // ValidateStructure's verdict, which TryCompare returns
}

// Prepare readies a structure for comparison, a degenerate one included.
func Prepare(st *pdb.Structure) *Prepared {
	p := prepare(st)
	return &p
}

// prepare is Prepare by value, so one-shot comparisons keep both sides
// on the stack. The mirror's three columns and the quad mirror share one
// allocation, each column padded to an even length so that it starts
// 16-byte aligned, and the quad mirror 32-byte aligned: the kernels'
// packed loads never straddle a cache line.
func prepare(st *pdb.Structure) Prepared {
	ca := st.CAs()
	n, m := len(ca), len(ca)+len(ca)&1
	soa := make([]float64, 3*m+12*(n+6)+3)
	p := Prepared{ID: st.ID, CA: ca, Features: prune.Extract(ca, st.Sequence()), finite: finite(ca), err: validate(st.ID, ca),
		soa: geom.ColsOf(soa, m, ca), quad: geom.QuadMirror(soa[3*m:], ca)}
	return p
}

// Lazy is a structure whose Prepared form the first Get builds and every
// later Get, on any goroutine, shares: a dataset or database pays once
// for each structure its comparisons reach.
type Lazy struct {
	*pdb.Structure
	once sync.Once
	p    *Prepared
}

// Get returns the structure's Prepared form, building it on first use.
func (l *Lazy) Get() *Prepared {
	l.once.Do(func() { l.p = Prepare(l.Structure) })
	return l.p
}
