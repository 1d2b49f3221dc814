package tmalign

import (
	"math"
	"slices"
	"testing"

	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/ss"
	"rckalign/internal/synth"
)

// testCtx builds a comparison context the way ComparePrepared does,
// for white-box testing of the initial alignment generators.
func testCtx(x, y []geom.Vec3) *ctx {
	return newCtx(new(kernel.Workspace), prepared(x, ""), prepared(y, ""), DefaultOptions())
}

// prepared readies a bare CA trace (an empty sequence reads as
// poly-alanine).
func prepared(ca []geom.Vec3, seq string) *Prepared { return Prepare(pdb.FromCAs("", ca, seq)) }

func shiftedCopy(x []geom.Vec3, drop int) []geom.Vec3 {
	// A copy of x missing its first `drop` residues, rigidly moved.
	g := geom.Transform{R: geom.RotZ(0.9), T: geom.V(11, -3, 6)}
	out := make([]geom.Vec3, len(x)-drop)
	for i := range out {
		out[i] = g.Apply(x[i+drop])
	}
	return out
}

func testProtein(n int, seed int64) []geom.Vec3 {
	s := synth.Generate("t", synth.Blueprint{
		{Type: ss.Helix, Len: n / 3},
		{Type: ss.Coil, Len: 6},
		{Type: ss.Strand, Len: n / 5},
		{Type: ss.Coil, Len: 5},
		{Type: ss.Helix, Len: n - n/3 - n/5 - 11},
	}, seed)
	return s.CAs()
}

func TestInitialGaplessFindsShift(t *testing.T) {
	x := testProtein(90, 1)
	y := shiftedCopy(x, 7) // y[j] corresponds to x[j+7]
	c := testCtx(x, y)
	inv := make([]int, len(y))
	c.initialGapless(inv)
	// The winning diagonal must be k=7: most aligned js map to j+7.
	hits := 0
	for j, i := range inv {
		if i == j+7 {
			hits++
		}
	}
	if hits < len(y)*3/4 {
		t.Errorf("gapless initial found %d/%d correct pairs", hits, len(y))
	}
}

func TestInitialSSMonotonicAndSane(t *testing.T) {
	x := testProtein(80, 2)
	y := testProtein(70, 3)
	c := testCtx(x, y)
	inv := make([]int, len(y))
	c.initialSS(inv)
	if !seqalign.IsMonotonic(inv, len(x)) {
		t.Fatal("SS initial not monotonic")
	}
	if seqalign.AlignedLen(inv) < 10 {
		t.Error("SS initial aligned almost nothing")
	}
}

func TestInitialLocalRecoversRigidCopy(t *testing.T) {
	x := testProtein(80, 4)
	y := shiftedCopy(x, 0)
	c := testCtx(x, y)
	inv := make([]int, len(y))
	if !c.initialLocal(inv) {
		t.Fatal("initialLocal found nothing")
	}
	hits := 0
	for j, i := range inv {
		if i == j {
			hits++
		}
	}
	if hits < len(y)/2 {
		t.Errorf("local initial found %d/%d identity pairs", hits, len(y))
	}
}

func TestInitialLocalTooShort(t *testing.T) {
	x := testProtein(80, 5)
	y := x[:8]
	c := testCtx(x, y)
	inv := make([]int, len(y))
	if c.initialLocal(inv) {
		t.Error("initialLocal should refuse chains shorter than a fragment")
	}
}

func TestInitialSSPlusUsesRotation(t *testing.T) {
	x := testProtein(70, 6)
	g := geom.Transform{R: geom.RotX(1.2), T: geom.V(4, 4, 4)}
	y := make([]geom.Vec3, len(x))
	g.ApplyAll(y, x)
	c := testCtx(x, y)
	inv := make([]int, len(y))
	// With the true rotation supplied, SS+distance must recover the
	// identity alignment.
	c.initialSSPlus(inv, g)
	hits := 0
	for j, i := range inv {
		if i == j {
			hits++
		}
	}
	if hits < len(y)*9/10 {
		t.Errorf("ssplus with exact rotation found %d/%d", hits, len(y))
	}
}

func TestInitialFragment(t *testing.T) {
	x := testProtein(90, 7)
	y := shiftedCopy(x, 5)
	c := testCtx(x, y)
	inv := make([]int, len(y))
	if !c.initialFragment(inv) {
		t.Fatal("initialFragment found nothing")
	}
	if !seqalign.IsMonotonic(inv, len(x)) {
		t.Fatal("fragment initial not monotonic")
	}
	hits := 0
	for j, i := range inv {
		if i == j+5 {
			hits++
		}
	}
	if hits < len(y)/2 {
		t.Errorf("fragment initial found %d/%d shifted pairs", hits, len(y))
	}
}

func TestLongestSSElement(t *testing.T) {
	mk := func(s string) []ss.Type {
		out := make([]ss.Type, len(s))
		for i, ch := range s {
			switch ch {
			case 'H':
				out[i] = ss.Helix
			case 'E':
				out[i] = ss.Strand
			default:
				out[i] = ss.Coil
			}
		}
		return out
	}
	start, end := longestSSElement(mk("CCHHHCCEEEEEEC"))
	if start != 7 || end != 13 {
		t.Errorf("longest run = [%d,%d), want [7,13)", start, end)
	}
	// All coil: empty result.
	start, end = longestSSElement(mk("CCCCC"))
	if start != 0 || end != 0 {
		t.Errorf("all-coil run = [%d,%d)", start, end)
	}
	start, end = longestSSElement(nil)
	if start != 0 || end != 0 {
		t.Errorf("nil run = [%d,%d)", start, end)
	}
}

func TestScoreFastRanksCorrectly(t *testing.T) {
	// The fast score must rank the true alignment above a wrong diagonal.
	x := testProtein(80, 8)
	y := shiftedCopy(x, 0)
	c := testCtx(x, y)
	good := make([]int, len(y))
	bad := make([]int, len(y))
	for j := range good {
		good[j] = j
		bad[j] = -1
	}
	for j := 20; j < len(y); j++ {
		bad[j] = j - 20
	}
	score := func(invmap []int) float64 {
		n := alignedPairs(c.x, c.y, invmap, c.xtm, c.ytm)
		xc, yc := geom.ColsOf(c.w.PairCols, n, c.xtm[:n]), geom.ColsOf(c.w.PairCols[3*n:], n, c.ytm[:n])
		ls := [1]fastLane{c.lane(0, c.xtm[:n], c.ytm[:n], xc, yc, &c.ops)}
		c.fastScores(ls[:])
		return ls[0].score
	}
	if sGood, sBad := score(good), score(bad); sGood <= sBad {
		t.Errorf("fast score: good %v <= bad %v", sGood, sBad)
	}
}

func TestDPIterImproves(t *testing.T) {
	// Starting from a partially wrong alignment on a rigid pair, DP
	// refinement must reach a near-perfect TM-score.
	x := testProtein(80, 9)
	y := shiftedCopy(x, 0)
	c := testCtx(x, y)
	start := make([]int, len(y))
	for j := range start {
		start[j] = -1
	}
	for j := 0; j < len(y)-10; j++ {
		start[j] = j + 10 // off-by-ten diagonal
	}
	tm0, tr := c.detailedSearch(start)
	tm, _, inv := c.dpIter(start, tr, 10)
	if tm < tm0 {
		t.Fatalf("dpIter regressed: %v -> %v", tm0, tm)
	}
	// An off-by-ten start on a helical protein sits near a periodicity
	// local optimum (whole helix turns superpose onto each other), so
	// dpIter alone need not reach the global alignment — that is what
	// the multiple initial alignments are for. It must still improve
	// substantially over the start and stay a valid alignment.
	if tm < tm0+0.05 {
		t.Errorf("dpIter barely improved: %v -> %v", tm0, tm)
	}
	if !seqalign.IsMonotonic(inv, len(x)) {
		t.Error("dpIter produced an invalid alignment")
	}

	// From the true alignment, dpIter must hold TM near 1.
	ident := make([]int, len(y))
	for j := range ident {
		ident[j] = j
	}
	tmI0, trI := c.detailedSearch(ident)
	tmI, _, _ := c.dpIter(ident, trI, 5)
	if tmI < 0.99 || tmI < tmI0-1e-9 {
		t.Errorf("dpIter degraded the true alignment: %v -> %v", tmI0, tmI)
	}
}

// serialGapless is get_initial one diagonal at a time, the way
// initialGapless ranked before it scored offsets in pairs: each offset
// in order, scored alone unless the memo holds it, its ops charged, the
// first best kept. It returns the best score.
func serialGapless(c *ctx, dst []int) float64 {
	diagonal(dst, c.xlen, c.xlen)
	best := -1.0
	seqalign.GaplessThreading(c.xlen, c.ylen, max(min(c.xlen, c.ylen)/2, 5), func(k, lo, hi int) {
		d := &c.w.Diagonals[k+c.ylen]
		if !d.Known {
			c.scoreDiagonals(k)
		}
		if c.ops.Add(d.Ops); d.Score > best {
			best = d.Score
			diagonal(dst, k, c.xlen)
		}
	})
	return best
}

// checkPairedGapless runs initialGapless on paired and serialGapless on
// serial, two contexts over the same chains, and requires the same
// winner, the same best score bits, every Diagonals entry equal and the
// same ops. Then initialFragment, which reads the memo, must agree on
// both. It returns how many diagonals the ranking visits.
func checkPairedGapless(t *testing.T, name string, paired, serial *ctx) int {
	t.Helper()
	got, want := make([]int, paired.ylen), make([]int, serial.ylen)
	paired.initialGapless(got)
	bestWant := serialGapless(serial, want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: paired winner %v, serial %v", name, got, want)
	}
	visited := 0
	bestGot := -1.0
	for k, d := range paired.w.Diagonals[:paired.xlen+paired.ylen] {
		if s := serial.w.Diagonals[k]; d.Known != s.Known || math.Float64bits(d.Score) != math.Float64bits(s.Score) || d.Ops != s.Ops {
			t.Fatalf("%s: diagonal %d paired %+v, serial %+v", name, k-paired.ylen, d, s)
		}
		if d.Known {
			visited++
			bestGot = max(bestGot, d.Score)
		}
	}
	if math.Float64bits(bestGot) != math.Float64bits(bestWant) || paired.ops != serial.ops {
		t.Fatalf("%s: paired best %x ops %+v, serial %x ops %+v", name, bestGot, paired.ops, bestWant, serial.ops)
	}

	// initialFragment's offsets that get_initial already scored.
	fs, fe := longestSSElement(paired.a.Features.Sec)
	if fe-fs < 4 {
		fs, fe = paired.xlen/3, paired.xlen/3+paired.xlen/3
	}
	hits := 0
	for k := 0; k+fe-fs <= paired.ylen; k++ {
		if paired.w.Diagonals[fs-k+paired.ylen].Known {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("%s: initialFragment reads no diagonal from the paired memo", name)
	}
	okGot, okWant := paired.initialFragment(got), serial.initialFragment(want)
	if okGot != okWant || !slices.Equal(got, want) || paired.ops != serial.ops {
		t.Fatalf("%s: initialFragment after paired ranking %t %v ops %+v, after serial %t %v ops %+v",
			name, okGot, got, paired.ops, okWant, want, serial.ops)
	}
	return visited
}

// TestInitialGaplessPairedMatchesSerial: get_initial scores its offsets
// two at a time, yet its winner, best score, Diagonals memo and ops are
// those of ranking one offset at a time — on CK34 and RS119 pairs with
// odd and even diagonal counts, and on a fixture where the two diagonals
// of one pair tie at the top, so the earlier must win.
func TestInitialGaplessPairedMatchesSerial(t *testing.T) {
	parity := [2]bool{}
	for _, ds := range []*synth.Dataset{synth.CK34(), synth.RS119()} {
		s := ds.Structures
		for i := 0; i < 6; i++ {
			a, b := s[(7*i)%len(s)], s[(7*i+3+i)%len(s)]
			x, y := a.CAs(), b.CAs()
			n := checkPairedGapless(t, a.ID+" vs "+b.ID, testCtx(x, y), testCtx(x, y))
			parity[n%2] = true
		}
	}
	if !parity[0] || !parity[1] {
		t.Errorf("the pairs rank only even or only odd diagonal counts: %v", parity)
	}

	// x is y twice over: diagonals 0 and len(y) align the same coordinates,
	// so they score the same bits, above every partial overlap. Scoring
	// every other offset first leaves those two to one paired solve.
	y := synth.CK34().Structures[5].CAs()
	L := len(y)
	x := append(append([]geom.Vec3(nil), y...), y...)
	paired, serial := testCtx(x, y), testCtx(x, y)
	seqalign.GaplessThreading(len(x), L, max(L/2, 5), func(k, lo, hi int) {
		if k != 0 && k != L {
			paired.scoreDiagonals(k)
		}
	})
	checkPairedGapless(t, "tie", paired, serial)
	d0, dL := paired.w.Diagonals[L], paired.w.Diagonals[2*L]
	if math.Float64bits(d0.Score) != math.Float64bits(dL.Score) || d0.Ops != dL.Ops {
		t.Fatalf("tie fixture: diagonals 0 and %d score %x and %x", L, d0.Score, dL.Score)
	}
	got := make([]int, L)
	paired.initialGapless(got)
	for j, i := range got {
		if i != j {
			t.Fatalf("tie fixture: the later diagonal won (invmap[%d] = %d)", j, i)
		}
	}
}
