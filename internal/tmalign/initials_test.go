package tmalign

import (
	"testing"

	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/seqalign"
	"rckalign/internal/ss"
	"rckalign/internal/synth"
)

// testCtx builds a comparison context the way CompareCAWS does, for
// white-box testing of the initial alignment generators.
func testCtx(x, y []geom.Vec3) *ctx {
	return newCtx(new(kernel.Workspace), x, y, "", "", DefaultOptions())
}

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
	// scoreFast must rank the true alignment above a wrong diagonal.
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
	if sGood, sBad := c.scoreFast(good), c.scoreFast(bad); sGood <= sBad {
		t.Errorf("scoreFast: good %v <= bad %v", sGood, sBad)
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
