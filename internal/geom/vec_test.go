package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a[0], b[0], tol) && almostEq(a[1], b[1], tol) && almostEq(a[2], b[2], tol)
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Norm2(); got != 14 {
		t.Errorf("Norm2 = %v", got)
	}
	if !almostEq(a.Norm(), math.Sqrt(14), 1e-12) {
		t.Errorf("Norm = %v", a.Norm())
	}
}

func TestCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		bound := func(v float64) float64 {
			if math.IsNaN(v) {
				return 0
			}
			return math.Mod(v, 1e3)
		}
		a := V(bound(ax), bound(ay), bound(az))
		b := V(bound(bx), bound(by), bound(bz))
		c := a.Cross(b)
		return almostEq(c.Dot(a), 0, 1e-6*(1+a.Norm2())*(1+b.Norm2())) &&
			almostEq(c.Dot(b), 0, 1e-6*(1+a.Norm2())*(1+b.Norm2()))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCrossRightHanded(t *testing.T) {
	got := V(1, 0, 0).Cross(V(0, 1, 0))
	if got != V(0, 0, 1) {
		t.Errorf("x cross y = %v, want z", got)
	}
}

func TestUnit(t *testing.T) {
	u := V(3, 4, 0).Unit()
	if !vecAlmostEq(u, V(0.6, 0.8, 0), 1e-12) {
		t.Errorf("Unit = %v", u)
	}
	if z := (Vec3{}).Unit(); z != (Vec3{}) {
		t.Errorf("Unit of zero = %v, want zero", z)
	}
}

func TestCentroid(t *testing.T) {
	pts := []Vec3{V(0, 0, 0), V(2, 4, 6)}
	if c := Centroid(pts); c != V(1, 2, 3) {
		t.Errorf("Centroid = %v", c)
	}
	if c := Centroid(nil); c != (Vec3{}) {
		t.Errorf("Centroid(nil) = %v", c)
	}
}

func TestDist(t *testing.T) {
	if d := V(1, 1, 1).Dist(V(1, 1, 2)); !almostEq(d, 1, 1e-12) {
		t.Errorf("Dist = %v", d)
	}
	if d := V(0, 0, 0).Dist2(V(1, 2, 2)); !almostEq(d, 9, 1e-12) {
		t.Errorf("Dist2 = %v", d)
	}
}

func TestMat3Identity(t *testing.T) {
	id := Identity()
	v := V(1, -2, 3)
	if id.MulVec(v) != v {
		t.Error("identity MulVec changed the vector")
	}
	if id.Det() != 1 {
		t.Errorf("identity Det = %v", id.Det())
	}
	if !id.IsRotation(1e-12) {
		t.Error("identity should be a rotation")
	}
}

func TestMat3MulTranspose(t *testing.T) {
	m := RotZ(0.3).Mul(RotX(1.1))
	mt := m.Transpose()
	id := m.Mul(mt)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(id[i][j], want, 1e-12) {
				t.Fatalf("m * m^T [%d][%d] = %v", i, j, id[i][j])
			}
		}
	}
}

func TestRotationsAreRotations(t *testing.T) {
	for _, m := range []Mat3{RotX(0.7), RotY(-1.3), RotZ(2.9), AxisAngle(V(1, 2, 3), 0.5)} {
		if !m.IsRotation(1e-10) {
			t.Errorf("matrix %v is not a rotation", m)
		}
	}
}

func TestAxisAngleMatchesRotZ(t *testing.T) {
	a := AxisAngle(V(0, 0, 1), 0.8)
	b := RotZ(0.8)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(a[i][j], b[i][j], 1e-12) {
				t.Fatalf("AxisAngle z != RotZ at [%d][%d]: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestApplyAll(t *testing.T) {
	tr := Transform{R: RotZ(math.Pi / 2), T: V(0, 0, 1)}
	pts := []Vec3{V(1, 0, 0), V(0, 1, 0)}
	dst := make([]Vec3, 2)
	tr.ApplyAll(dst, pts)
	if !vecAlmostEq(dst[0], V(0, 1, 1), 1e-12) || !vecAlmostEq(dst[1], V(-1, 0, 1), 1e-12) {
		t.Errorf("ApplyAll = %v", dst)
	}
	// In-place aliasing must also work.
	tr.ApplyAll(pts, pts)
	if !vecAlmostEq(pts[0], V(0, 1, 1), 1e-12) {
		t.Errorf("in-place ApplyAll = %v", pts[0])
	}
}
