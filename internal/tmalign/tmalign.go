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

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/ss"
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
	// NormLength, when > 0, additionally reports a TM-score normalised
	// by this fixed length (the reference TM-align's -L flag) in
	// Result.TMNorm.
	NormLength int
	// NormAvg, when set, additionally reports a TM-score normalised by
	// the average chain length (the -a flag) in Result.TMNorm. Ignored
	// when NormLength is set.
	NormAvg bool
	// D0 overrides the automatic d0 for the extra normalisation (the -d
	// flag); 0 keeps the length-derived value.
	D0 float64
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
	return fmt.Sprintf("tmalign/s%d:f%d:i%d:l%t:n%d:a%t:d%g",
		o.SimplifyStep, o.FinalStep, o.MaxDPIters, o.SkipLocalInit, o.NormLength, o.NormAvg, o.D0)
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
	// TMNorm is the extra user-requested normalisation (Options
	// NormLength / NormAvg / D0); 0 when not requested.
	TMNorm float64
	// Transform superposes chain 1 onto chain 2.
	Transform geom.Transform
	// Invmap is the final alignment: Invmap[j] = i aligns residue j of
	// chain 2 with residue i of chain 1 (-1 = unaligned).
	Invmap []int
	// Ops counts the abstract operations this comparison performed.
	Ops costmodel.Counter
}

// TM returns the conventional headline score max(TM1, TM2)... TM-align
// reports both; consumers ranking "similarity to the query" typically use
// the score normalised by the query length. TM here is the mean of the
// two, a common single-number summary.
func (r *Result) TM() float64 { return (r.TM1 + r.TM2) / 2 }

// String summarises the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s vs %s: TM1=%.4f TM2=%.4f aligned=%d rmsd=%.2f seqid=%.2f",
		r.Name1, r.Name2, r.TM1, r.TM2, r.AlignedLen, r.RMSD, r.SeqID)
}

// ctx holds per-comparison state and reusable buffers.
type ctx struct {
	x, y       []geom.Vec3
	seq1, seq2 string
	sec1, sec2 []ss.Type
	xlen, ylen int
	sp         tmscore.Params
	opt        Options
	nw         *seqalign.Aligner
	ops        costmodel.Counter
	w          *kernel.Workspace

	// Scratch views into w, sized to the current problem.
	r1, r2   []geom.Vec3
	xtm, ytm []geom.Vec3
	xt       []geom.Vec3
	dis2     []float64
	invTmp   []int
	scoreMat []float64
}

// Compare aligns two structures with the given options.
func Compare(s1, s2 *pdb.Structure, opt Options) *Result {
	r := CompareCA(s1.CAs(), s2.CAs(), s1.Sequence(), s2.Sequence(), opt)
	r.Name1, r.Name2 = s1.ID, s2.ID
	return r
}

// CompareCA aligns two CA traces (with one-letter sequences for the
// sequence-identity report). Scratch comes from the kernel workspace
// pool; workers that own a Workspace should call CompareCAWS directly.
func CompareCA(x, y []geom.Vec3, seq1, seq2 string, opt Options) *Result {
	w := kernel.Get()
	defer kernel.Put(w)
	return CompareCAWS(w, x, y, seq1, seq2, opt)
}

// CompareCAWS is CompareCA running on the caller's kernel workspace. It
// is the allocation-honest entry point used by the parallel runners: all
// O(L) and O(L^2) scratch lives in w and is reused across comparisons.
// The returned Result does not alias w.
func CompareCAWS(w *kernel.Workspace, x, y []geom.Vec3, seq1, seq2 string, opt Options) *Result {
	if len(x) < 3 || len(y) < 3 {
		// Degenerate chains cannot be aligned meaningfully; report an
		// empty alignment rather than guessing.
		return &Result{Len1: len(x), Len2: len(y), Invmap: emptyInvmap(len(y)), Transform: geom.IdentityTransform()}
	}
	c := newCtx(w, x, y, seq1, seq2, opt)
	return c.finalize(c.run())
}

// newCtx readies w for one comparison of x against y: buffers sized,
// the fixed chain mirrored, secondary structure assigned, and every
// compare-scoped memo table emptied — whatever the workspace's last
// comparison left behind, a panic included, this one starts clean.
func newCtx(w *kernel.Workspace, x, y []geom.Vec3, seq1, seq2 string, opt Options) *ctx {
	xlen, ylen := len(x), len(y)
	c := &ctx{
		x: x, y: y, seq1: seq1, seq2: seq2,
		xlen: xlen, ylen: ylen,
		sp:  tmscore.SearchParams(xlen, ylen),
		opt: opt.withDefaults(),
		nw:  w.Aligner(),
		w:   w,
	}
	c.sec1 = ss.Assign(x)
	c.sec2 = ss.Assign(y)
	c.ops.AddSS(xlen + ylen)

	n := max(xlen, ylen)
	w.ReservePairs(n)
	w.ReserveMat(xlen * ylen)
	c.r1 = w.R1[:n]
	c.r2 = w.R2[:n]
	c.xtm = w.PairX[:n]
	c.ytm = w.PairY[:n]
	c.xt = w.PairT[:n]
	c.dis2 = w.Dis2[:n]
	c.invTmp = w.InvTmp[:ylen]
	c.scoreMat = w.Mat[:xlen*ylen]

	w.ReserveMemo(xlen, ylen)

	// SoA mirror of the fixed chain for the fused matrix fills.
	yx, yy, yz := w.YX[:ylen], w.YY[:ylen], w.YZ[:ylen]
	for j := 0; j < ylen; j++ {
		p := &y[j]
		yx[j], yy[j], yz[j] = p[0], p[1], p[2]
	}
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
		a, b := &xt[k], &c.ytm[k]
		dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		if dx*dx+dy*dy+dz*dz <= d8sq {
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
		if i >= 0 && i < len(c.seq1) && j < len(c.seq2) && c.seq1[i] == c.seq2[j] {
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
	// final (fine) step over the kept pairs.
	pA := tmscore.FinalParams(float64(c.xlen))
	tmA, trA := pA.SearchWS(c.w, c.xtm[:n8], c.ytm[:n8], c.opt.FinalStep, &c.ops)
	pB := tmscore.FinalParams(float64(c.ylen))
	tmB, _ := pB.SearchWS(c.w, c.xtm[:n8], c.ytm[:n8], c.opt.FinalStep, &c.ops)
	res.TM1 = tmA
	res.TM2 = tmB

	// Extra user-requested normalisation (-L / -a / -d flags of the
	// reference implementation).
	if c.opt.NormLength > 0 || c.opt.NormAvg {
		l := float64(c.opt.NormLength)
		if c.opt.NormAvg && c.opt.NormLength <= 0 {
			l = float64(c.xlen+c.ylen) / 2
		}
		pN := tmscore.FinalParams(l)
		if c.opt.D0 > 0 {
			pN.D0 = c.opt.D0
		}
		res.TMNorm, _ = pN.SearchWS(c.w, c.xtm[:n8], c.ytm[:n8], c.opt.FinalStep, &c.ops)
	}
	if c.xlen >= c.ylen {
		res.Transform = trA
	} else {
		res.Transform = trFit
	}
	res.Ops = c.ops
	return res
}
