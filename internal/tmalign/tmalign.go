// Package tmalign implements the TM-align protein structure alignment
// algorithm (Zhang & Skolnick, Nucleic Acids Research 2005), the pairwise
// comparison method the paper parallelises. The implementation follows the
// reference algorithm: five initial alignments (gapless threading,
// secondary structure, local fragment superposition, SS+distance and
// fragment threading), each refined by iterative dynamic programming
// against the TM-score rotation search, and a final detailed scoring pass
// normalised by both chain lengths.
//
// All floating point work is instrumented with costmodel counters so a
// simulated CPU can charge realistic, input-dependent execution times for
// each pairwise comparison.
package tmalign

import (
	"fmt"
	"strconv"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/tmscore"
)

// Options tunes the alignment search.
type Options struct {
	// SimplifyStep is the fragment stride of the TM-score search used
	// while exploring alignments (TM-align default 40; 1 = exhaustive).
	SimplifyStep int
	// FinalStep is the fragment stride of the final scoring pass
	// (TM-align default 1).
	FinalStep int
	// MaxDPIters bounds the DP refinement iterations per gap setting
	// (TM-align default 30).
	MaxDPIters int
	// SkipLocalInit disables the O(L^2) fragment-pair initial alignment
	// (the most expensive initial); used by the fast profile.
	SkipLocalInit bool
}

// DefaultOptions returns TM-align's standard search settings.
func DefaultOptions() Options {
	return Options{SimplifyStep: 40, FinalStep: 1, MaxDPIters: 30}
}

// FastOptions returns a cheaper profile (coarser search, no local
// initial) for quick screening.
func FastOptions() Options {
	return Options{SimplifyStep: 40, FinalStep: 8, MaxDPIters: 10, SkipLocalInit: true}
}

// Key returns a canonical encoding of the effective search settings,
// for use as the kernel component of memoization keys (pairstore): two
// option values produce equal keys iff Compare would behave
// identically under them.
func (o Options) Key() string {
	o = o.withDefaults()
	return fmt.Sprintf("tmalign/s%d:f%d:i%d:l%t", o.SimplifyStep, o.FinalStep, o.MaxDPIters, o.SkipLocalInit)
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.SimplifyStep <= 0 {
		o.SimplifyStep = d.SimplifyStep
	}
	if o.FinalStep <= 0 {
		o.FinalStep = d.FinalStep
	}
	if o.MaxDPIters <= 0 {
		o.MaxDPIters = d.MaxDPIters
	}
	return o
}

// Result is the outcome of one pairwise comparison.
type Result struct {
	Name1, Name2 string
	Len1, Len2   int
	// AlignedLen is the number of residue pairs in the final alignment
	// within the d8 cutoff (TM-align's n_ali8).
	AlignedLen int
	// RMSD is the optimal-superposition RMSD over the AlignedLen pairs.
	RMSD float64
	// SeqID is the fraction of identical residues among aligned pairs.
	SeqID float64
	// TM1 is the TM-score normalised by Len1; TM2 by Len2.
	TM1, TM2 float64
	// Transform superposes chain 1 onto chain 2.
	Transform geom.Transform
	// Invmap is the final alignment: Invmap[j] = i aligns residue j of
	// chain 2 with residue i of chain 1 (-1 = unaligned).
	Invmap []int
	// Ops counts the abstract operations this comparison performed.
	Ops costmodel.Counter
}

// TM returns the mean of TM1 and TM2, the single-number summary the
// prune threshold and the benchmark's miss check compare against.
// TM-align reports both scores; ranking by similarity to a query usually
// takes the one normalised by the query's length.
func (r *Result) TM() float64 { return (r.TM1 + r.TM2) / 2 }

// String summarises the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s vs %s: TM1=%.4f TM2=%.4f aligned=%d rmsd=%.2f seqid=%.2f",
		r.Name1, r.Name2, r.TM1, r.TM2, r.AlignedLen, r.RMSD, r.SeqID)
}

// AppendScoreLine appends the -scores-out line of pair (i, j) to dst,
// byte-identical to fmt's "%d %d %.17g %.17g %.17g %d %.17g\n" of i, j,
// TM1, TM2, RMSD, AlignedLen, SeqID; it allocates only to grow dst.
func AppendScoreLine(dst []byte, i, j int, r *Result) []byte {
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(j), 10)
	for _, f := range [...]float64{r.TM1, r.TM2, r.RMSD} {
		dst = strconv.AppendFloat(append(dst, ' '), f, 'g', 17, 64)
	}
	dst = strconv.AppendInt(append(dst, ' '), int64(r.AlignedLen), 10)
	dst = strconv.AppendFloat(append(dst, ' '), r.SeqID, 'g', 17, 64)
	return append(dst, '\n')
}

// ctx holds per-comparison state and reusable buffers.
type ctx struct {
	a, b       Prepared // copies of the headers: the slices are shared, only read
	x, y       []geom.Vec3
	xlen, ylen int
	sp         tmscore.Params
	opt        Options
	nw         *seqalign.Aligner
	ops        costmodel.Counter
	w          *kernel.Workspace

	// Scratch views into w, sized to the current problem.
	xtm, ytm []geom.Vec3
	xt       []geom.Vec3
	invTmp   []int
	scoreMat []float64
}

// Compare aligns two structures with the given options, preparing both
// for this one comparison (Prepare once to compare a structure often).
func Compare(s1, s2 *pdb.Structure, opt Options) *Result {
	a, b := prepare(s1), prepare(s2)
	return ComparePrepared(&a, &b, opt)
}

// ComparePrepared aligns two prepared structures on a workspace from the
// kernel pool. The Result aliases neither.
func ComparePrepared(a, b *Prepared, opt Options) *Result {
	w := kernel.Get()
	defer kernel.Put(w)
	return compareWS(w, a, b, opt)
}

// compareWS is ComparePrepared on the caller's workspace: all O(L) and
// O(L^2) scratch lives in w and is reused across comparisons.
func compareWS(w *kernel.Workspace, a, b *Prepared, opt Options) *Result {
	if len(a.CA) < 3 || len(b.CA) < 3 {
		// Degenerate chains cannot be aligned meaningfully; report an
		// empty alignment rather than guessing.
		return &Result{Name1: a.ID, Name2: b.ID, Len1: len(a.CA), Len2: len(b.CA), Invmap: emptyInvmap(len(b.CA)), Transform: geom.IdentityTransform()}
	}
	c := newCtx(w, a, b, opt)
	return c.finalize(c.run())
}

// newCtx readies w for one comparison of a against b: buffers sized and
// every compare-scoped memo table emptied — whatever the workspace's
// last comparison left behind, a panic included, this one starts clean.
func newCtx(w *kernel.Workspace, a, b *Prepared, opt Options) *ctx {
	xlen, ylen := len(a.CA), len(b.CA)
	c := &ctx{
		a: *a, b: *b, x: a.CA, y: b.CA,
		xlen: xlen, ylen: ylen,
		sp:  tmscore.SearchParams(xlen, ylen),
		opt: opt.withDefaults(),
		nw:  w.Aligner(),
		w:   w,
	}
	// The simulated core assigns both chains' secondary structure per
	// pair, as TM-align does; the host did it once, in Prepare.
	c.ops.AddSS(xlen + ylen)

	n := max(xlen, ylen)
	w.ReservePairs(n)
	w.ReserveMat(xlen * ylen)
	c.xtm = w.PairX[:n]
	c.ytm = w.PairY[:n]
	c.xt = w.PairT[:n]
	c.invTmp = w.InvTmp[:ylen]
	c.scoreMat = w.Mat[:xlen*ylen]

	w.ReserveMemo(xlen, ylen)
	return c
}

func emptyInvmap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// run executes the initial-alignment + DP-refinement pipeline and returns
// the best alignment found (TM-align's main loop).
func (c *ctx) run() []int {
	best := c.w.InvBest[:c.ylen]
	for j := range best {
		best[j] = -1
	}
	bestTM := -1.0
	var bestTr geom.Transform

	consider := func(invmap []int, dpIters int, threshold float64) {
		if seqalign.AlignedLen(invmap) < 3 {
			return
		}
		tm, tr := c.detailedSearch(invmap)
		if tm > bestTM {
			bestTM = tm
			copy(best, invmap)
			bestTr = tr
		}
		if tm > bestTM*threshold && dpIters > 0 {
			tmDP, trDP, invDP := c.dpIter(invmap, tr, dpIters)
			if tmDP > bestTM {
				bestTM = tmDP
				copy(best, invDP)
				bestTr = trDP
			}
		}
	}

	// 1. Gapless threading.
	inv := c.w.InvSeed[:c.ylen]
	c.initialGapless(inv)
	consider(inv, c.opt.MaxDPIters, 0.0)

	// 2. Secondary structure alignment.
	c.initialSS(inv)
	consider(inv, c.opt.MaxDPIters, 0.2)

	// 3. Local fragment superposition (skippable: most expensive).
	if !c.opt.SkipLocalInit {
		if c.initialLocal(inv) {
			consider(inv, 2, 0.5)
		}
	}

	// 4. SS + distance-under-best-rotation hybrid (needs a rotation from
	// the work so far).
	if bestTM > 0 {
		c.initialSSPlus(inv, bestTr)
		consider(inv, c.opt.MaxDPIters, 0.2)
	}

	// 5. Fragment gapless threading.
	if c.initialFragment(inv) {
		consider(inv, 2, 0.5)
	}

	return best
}

// finalize performs the detailed final scoring pass on the chosen
// alignment: exhaustive TM-score search, d8 pair filtering, and scores
// normalised by each chain length.
func (c *ctx) finalize(invmap []int) *Result {
	res := &Result{
		Name1: c.a.ID, Name2: c.b.ID,
		Len1: c.xlen, Len2: c.ylen,
		Transform: geom.IdentityTransform(),
		Invmap:    emptyInvmap(c.ylen),
	}
	nAli := alignedPairs(c.x, c.y, invmap, c.xtm, c.ytm)
	if nAli < 3 {
		res.Ops = c.ops
		return res
	}

	// Detailed search on the full aligned set with the search params.
	_, tr := c.sp.SearchWS(c.w, c.xtm[:nAli], c.ytm[:nAli], c.opt.FinalStep, &c.ops)

	// Keep the pairs with d <= d8 under the best rotation (n_ali8),
	// compacting them to the front of xtm/ytm.
	d8sq := c.sp.ScoreD8 * c.sp.ScoreD8
	tr.ApplyAll(c.xt[:nAli], c.xtm[:nAli])
	c.ops.AddRotate(nAli)
	n8, k := 0, 0
	xt := c.xt[:nAli]
	for j, i := range invmap {
		if i < 0 {
			continue
		}
		if xt[k].Dist2(c.ytm[k]) <= d8sq {
			c.xtm[n8] = c.xtm[k]
			c.ytm[n8] = c.ytm[k]
			res.Invmap[j] = i
			n8++
		}
		k++
	}
	c.ops.AddScore(nAli)
	if n8 < 3 {
		// Pathological: keep the unfiltered alignment, re-gathered because
		// the compaction above overwrote the front of xtm/ytm.
		copy(res.Invmap, invmap)
		n8 = alignedPairs(c.x, c.y, invmap, c.xtm, c.ytm)
	}
	identical := 0
	for j, i := range res.Invmap {
		if i >= 0 && c.a.Features.Seq[i] == c.b.Features.Seq[j] {
			identical++
		}
	}

	res.AlignedLen = n8
	res.SeqID = float64(identical) / float64(n8)

	// RMSD over the kept pairs.
	trFit, rmsd := geom.Superpose(c.xtm[:n8], c.ytm[:n8])
	c.ops.AddKabsch(n8)
	res.RMSD = rmsd

	// Final TM-scores normalised by each chain length, searched at the
	// final (fine) step over the kept pairs. Equal lengths give equal
	// params and so the same search twice: its score is reused and its
	// ops charged again, as every repeat is (DESIGN.md §17).
	pA := tmscore.FinalParams(float64(c.xlen))
	before := c.ops
	tmA, trA := pA.SearchWS(c.w, c.xtm[:n8], c.ytm[:n8], c.opt.FinalStep, &c.ops)
	tmB := tmA
	if pB := tmscore.FinalParams(float64(c.ylen)); pB != pA {
		tmB, _ = pB.SearchWS(c.w, c.xtm[:n8], c.ytm[:n8], c.opt.FinalStep, &c.ops)
	} else {
		c.ops.Add(c.ops.Sub(before))
	}
	res.TM1 = tmA
	res.TM2 = tmB
	if c.xlen >= c.ylen {
		res.Transform = trA
	} else {
		res.Transform = trFit
	}
	res.Ops = c.ops
	return res
}
