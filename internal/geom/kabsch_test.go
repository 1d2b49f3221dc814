package geom

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomCloud generates n points in a box with the given rng.
func randomCloud(rng *rand.Rand, n int) []Vec3 {
	pts := make([]Vec3, n)
	for i := range pts {
		pts[i] = V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
	}
	return pts
}

func TestSuperposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomCloud(rng, 30)
	tr, rmsd := Superpose(p, p)
	if rmsd > 1e-5 {
		t.Errorf("self superposition RMSD = %v, want ~0", rmsd)
	}
	if !tr.R.IsRotation(1e-6) {
		t.Error("returned matrix is not a rotation")
	}
	for _, pt := range p {
		if !vecAlmostEq(tr.Apply(pt), pt, 1e-6) {
			t.Fatalf("self superposition moved a point: %v -> %v", pt, tr.Apply(pt))
		}
	}
}

// TestSuperposeRecoversRigidMotion is the core property: for a random
// rigid motion g, Superpose(p, g(p)) must recover g (zero RMSD).
func TestSuperposeRecoversRigidMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(100)
		p := randomCloud(rng, n)
		g := Transform{
			R: AxisAngle(V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()), rng.Float64()*2*math.Pi),
			T: V(rng.NormFloat64()*5, rng.NormFloat64()*5, rng.NormFloat64()*5),
		}
		q := make([]Vec3, n)
		g.ApplyAll(q, p)

		tr, rmsd := Superpose(p, q)
		if rmsd > 1e-6 {
			t.Fatalf("trial %d: rigid motion not recovered, RMSD = %v", trial, rmsd)
		}
		if !tr.R.IsRotation(1e-6) {
			t.Fatalf("trial %d: result is not a rotation", trial)
		}
		for i := range p {
			if !vecAlmostEq(tr.Apply(p[i]), q[i], 1e-5) {
				t.Fatalf("trial %d: point %d not mapped: %v vs %v", trial, i, tr.Apply(p[i]), q[i])
			}
		}
	}
}

// TestSuperposeOptimal compares against brute-force orientation search on
// a small problem: no sampled rotation may beat the analytic optimum.
func TestSuperposeOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomCloud(rng, 12)
	q := randomCloud(rng, 12)
	_, best := Superpose(p, q)

	cp, cq := Centroid(p), Centroid(q)
	pc := make([]Vec3, len(p))
	qc := make([]Vec3, len(q))
	for i := range p {
		pc[i] = p[i].Sub(cp)
		qc[i] = q[i].Sub(cq)
	}
	tmp := make([]Vec3, len(p))
	for trial := 0; trial < 3000; trial++ {
		r := AxisAngle(V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()), rng.Float64()*2*math.Pi)
		for i := range pc {
			tmp[i] = r.MulVec(pc[i])
		}
		if rmsd := RMSD(tmp, qc); rmsd < best-1e-9 {
			t.Fatalf("random rotation beats Superpose: %v < %v", rmsd, best)
		}
	}
}

func TestSuperposeNoReflection(t *testing.T) {
	// A mirrored point set cannot be superposed by a proper rotation;
	// the result must still be a rotation (det +1), not a reflection.
	rng := rand.New(rand.NewSource(6))
	p := randomCloud(rng, 25)
	q := make([]Vec3, len(p))
	for i, pt := range p {
		q[i] = V(-pt[0], pt[1], pt[2]) // mirror through x=0
	}
	tr, rmsd := Superpose(p, q)
	if !tr.R.IsRotation(1e-6) {
		t.Errorf("det = %v; reflections are not allowed", tr.R.Det())
	}
	if rmsd < 0.1 {
		t.Errorf("mirrored cloud superposed too well (rmsd=%v): likely a reflection", rmsd)
	}
}

func TestSuperposeDegenerate(t *testing.T) {
	// Collinear points: rotation about the line is arbitrary but the fit
	// must still be exact and proper.
	p := []Vec3{V(0, 0, 0), V(1, 0, 0), V(2, 0, 0), V(3, 0, 0)}
	q := []Vec3{V(5, 5, 5), V(5, 6, 5), V(5, 7, 5), V(5, 8, 5)}
	tr, rmsd := Superpose(p, q)
	if rmsd > 1e-6 {
		t.Errorf("collinear superposition RMSD = %v", rmsd)
	}
	if !tr.R.IsRotation(1e-6) {
		t.Error("collinear superposition returned a non-rotation")
	}
	// Single point: pure translation.
	tr, rmsd = Superpose([]Vec3{V(1, 2, 3)}, []Vec3{V(4, 5, 6)})
	if rmsd > 1e-9 || !vecAlmostEq(tr.Apply(V(1, 2, 3)), V(4, 5, 6), 1e-9) {
		t.Errorf("single point superposition failed: rmsd=%v", rmsd)
	}
}

func TestSuperposePanics(t *testing.T) {
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("Superpose with mismatched lengths should panic")
		}
		// The panic value must be an error wrapping the typed sentinel,
		// so tmalign.TryCompare can recover it.
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrPointMismatch) {
			t.Errorf("panic value %v does not wrap ErrPointMismatch", rec)
		}
	}()
	Superpose([]Vec3{{}}, []Vec3{{}, {}})
}

func TestSuperposeEmptyPanics(t *testing.T) {
	defer func() {
		rec := recover()
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrNoPoints) {
			t.Errorf("panic value %v does not wrap ErrNoPoints", rec)
		}
	}()
	Superpose(nil, nil)
}

func TestRMSDKnown(t *testing.T) {
	p := []Vec3{V(0, 0, 0), V(0, 0, 0)}
	q := []Vec3{V(3, 0, 0), V(0, 4, 0)}
	// mean squared = (9 + 16)/2 = 12.5
	if got := RMSD(p, q); !almostEq(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSD = %v", got)
	}
	if RMSD(nil, nil) != 0 {
		t.Error("RMSD of empty sets should be 0")
	}
}

func TestSuperposedRMSDNotWorseThanRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p := randomCloud(rng, 10+rng.Intn(40))
		q := randomCloud(rng, len(p))
		if s, r := SuperposedRMSD(p, q), RMSD(p, q); s > r+1e-9 {
			t.Fatalf("superposed RMSD %v exceeds raw RMSD %v", s, r)
		}
	}
}

func BenchmarkSuperpose150(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p := randomCloud(rng, 150)
	q := randomCloud(rng, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Superpose(p, q)
	}
}

// RMSD returns the root-mean-square deviation between two equal-length
// point sets without superposing them.
func RMSD(p, q []Vec3) float64 {
	if len(p) != len(q) {
		panic(fmt.Errorf("%w (RMSD: %d vs %d)", ErrPointMismatch, len(p), len(q)))
	}
	if len(p) == 0 {
		return 0
	}
	var s float64
	for i := range p {
		s += p[i].Dist2(q[i])
	}
	return math.Sqrt(s / float64(len(p)))
}

// SuperposedRMSD is a convenience wrapper returning only the minimal RMSD
// after optimal superposition.
func SuperposedRMSD(p, q []Vec3) float64 {
	_, r := Superpose(p, q)
	return r
}
