package geom

import (
	"math"
	"math/rand"
	"testing"
)

// jacobi2Stop runs the paired kernel alone on keys a and b and returns
// where it handed the lanes to the scalar loop.
func jacobi2Stop(a, b [4][4]float64) (sweep, rot int) {
	var m, w [4][4][2]float64
	lanes(&m, &w, &a, &b)
	return jacobi2(&m, &w)
}

// TestJacobiPairStops pins where jacobi2 hands over: at the first sweep
// either lane starts converged, at the first zero pivot in either lane,
// or at the sweep cap; and the result stays maxEigen4's in every case.
func TestJacobiPairStops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	key := func() [4][4]float64 { return newKabsch(randomCloud(rng, 12), randomCloud(rng, 12)).key }
	check := func(name string, a, b [4][4]float64, sweep, rot int) {
		t.Helper()
		if s, r := jacobi2Stop(a, b); s != sweep || r != rot {
			t.Errorf("%s: stopped at sweep %d rotation %d, want %d %d", name, s, r, sweep, rot)
		}
		la, qa, lb, qb := MaxEigen4x2(a, b)
		for lane, got := range [2]struct {
			key  [4][4]float64
			l    float64
			quat [4]float64
		}{{a, la, qa}, {b, lb, qb}} {
			l, q := maxEigen4(got.key)
			if !sameBits(l, got.l) || !sameBits(q[0], got.quat[0]) || !sameBits(q[1], got.quat[1]) || !sameBits(q[2], got.quat[2]) || !sameBits(q[3], got.quat[3]) {
				t.Errorf("%s: lane %d gives %x %x, maxEigen4 %x %x", name, lane, got.l, got.quat, l, q)
			}
		}
	}

	// Lanes converging at different sweeps: the pair stops at the earlier.
	differ := false
	for trial := 0; trial < 20; trial++ {
		a, b := key(), key()
		sa, _ := jacobi2Stop(a, a)
		sb, _ := jacobi2Stop(b, b)
		if sa < 2 || sb < 2 {
			t.Fatalf("random keys converged after %d / %d sweeps", sa, sb)
		}
		differ = differ || sa != sb
		check("random keys", a, b, min(sa, sb), 0)
	}
	if !differ {
		t.Error("no two random keys converged at different sweeps")
	}

	a, b := key(), key()
	diag := a
	for i := range diag {
		for j := range diag[i] {
			if i != j {
				diag[i][j] = 0
			}
		}
	}
	check("diagonal lane", diag, b, 0, 0)

	zero01 := b
	zero01[0][1], zero01[1][0] = 0, 0
	check("zero first pivot", a, zero01, 0, 0)

	// With a[0][2] = a[1][2] = 0 the first rotation leaves a[0][2] zero.
	zero02 := a
	zero02[0][2], zero02[2][0], zero02[1][2], zero02[2][1] = 0, 0, 0, 0
	check("zero second pivot", zero02, b, 0, 1)

	nan := b
	nan[1][3], nan[3][1] = math.NaN(), math.NaN()
	check("NaN lane", nan, nan, jacobiSweeps, 0)
}
