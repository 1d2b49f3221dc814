// Package geom provides the small dense linear algebra needed by protein
// structure comparison: 3-vectors, 3x3 matrices, rigid transforms and the
// Kabsch/Horn optimal superposition of point sets.
//
// All types are plain value types so they can be embedded in hot loops
// without allocation.
package geom

import "math"

// Vec3 is a point or direction in 3-space.
type Vec3 [3]float64

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s*a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a[0], s * a[1], s * a[2]} }

// Dot returns the inner product a.b, never fused (so Norm, Norm2, Dist,
// Dist2 and Unit are not either).
func (a Vec3) Dot(b Vec3) float64 {
	return float64(a[0]*b[0]) + float64(a[1]*b[1]) + float64(a[2]*b[2])
}

// Cross returns the vector cross product a x b, never fused.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		float64(a[1]*b[2]) - float64(a[2]*b[1]),
		float64(a[2]*b[0]) - float64(a[0]*b[2]),
		float64(a[0]*b[1]) - float64(a[1]*b[0]),
	}
}

// Norm returns the Euclidean length of a.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Norm2 returns the squared Euclidean length of a.
func (a Vec3) Norm2() float64 { return a.Dot(a) }

// Dist returns the Euclidean distance |a-b|.
func (a Vec3) Dist(b Vec3) float64 { return a.Sub(b).Norm() }

// Dist2 returns the squared Euclidean distance |a-b|^2.
func (a Vec3) Dist2(b Vec3) float64 { return a.Sub(b).Norm2() }

// Unit returns a scaled to unit length. The zero vector is returned
// unchanged.
func (a Vec3) Unit() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Centroid returns the arithmetic mean of pts. It returns the zero vector
// for an empty slice.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// Mat3 is a 3x3 matrix in row-major order.
type Mat3 [3][3]float64

// Identity returns the 3x3 identity matrix.
func Identity() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// MulVec returns m * v, each row ((a*x + b*y) + c*z), never fused.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		float64(m[0][0]*v[0]) + float64(m[0][1]*v[1]) + float64(m[0][2]*v[2]),
		float64(m[1][0]*v[0]) + float64(m[1][1]*v[1]) + float64(m[1][2]*v[2]),
		float64(m[2][0]*v[0]) + float64(m[2][1]*v[1]) + float64(m[2][2]*v[2]),
	}
}

// Mul returns the matrix product m * n, never fused.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = float64(m[i][0]*n[0][j]) + float64(m[i][1]*n[1][j]) + float64(m[i][2]*n[2][j])
		}
	}
	return r
}

// Transpose returns m^T.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// Det returns the determinant of m, never fused.
func (m Mat3) Det() float64 {
	return float64(m[0][0]*(float64(m[1][1]*m[2][2])-float64(m[1][2]*m[2][1]))) -
		float64(m[0][1]*(float64(m[1][0]*m[2][2])-float64(m[1][2]*m[2][0]))) +
		float64(m[0][2]*(float64(m[1][0]*m[2][1])-float64(m[1][1]*m[2][0])))
}

// IsRotation reports whether m is orthonormal with determinant +1 within
// tolerance tol.
func (m Mat3) IsRotation(tol float64) bool {
	mt := m.Mul(m.Transpose())
	id := Identity()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(mt[i][j]-id[i][j]) > tol {
				return false
			}
		}
	}
	return math.Abs(m.Det()-1) <= tol
}

// RotX returns the rotation matrix for angle a (radians) about the x axis.
func RotX(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{{1, 0, 0}, {0, c, -s}, {0, s, c}}
}

// RotY returns the rotation matrix for angle a (radians) about the y axis.
func RotY(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{{c, 0, s}, {0, 1, 0}, {-s, 0, c}}
}

// RotZ returns the rotation matrix for angle a (radians) about the z axis.
func RotZ(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{{c, -s, 0}, {s, c, 0}, {0, 0, 1}}
}

// AxisAngle returns the rotation of angle a (radians) about unit axis u,
// never fused.
func AxisAngle(u Vec3, a float64) Mat3 {
	u = u.Unit()
	c, s := math.Cos(a), math.Sin(a)
	t := 1 - c
	x, y, z := u[0], u[1], u[2]
	return Mat3{
		{float64(t*x*x) + c, float64(t*x*y) - float64(s*z), float64(t*x*z) + float64(s*y)},
		{float64(t*x*y) + float64(s*z), float64(t*y*y) + c, float64(t*y*z) - float64(s*x)},
		{float64(t*x*z) - float64(s*y), float64(t*y*z) + float64(s*x), float64(t*z*z) + c},
	}
}

// Transform is a rigid-body motion x -> R*x + T.
type Transform struct {
	R Mat3
	T Vec3
}

// IdentityTransform returns the identity rigid motion.
func IdentityTransform() Transform { return Transform{R: Identity()} }

// Apply maps a single point through the transform.
func (t Transform) Apply(v Vec3) Vec3 { return t.R.MulVec(v).Add(t.T) }

// row is one axis of Apply, ((a*x + b*y) + c*z) + t, never fused.
func row(r *[3]float64, t, x, y, z float64) float64 {
	return float64(r[0]*x) + float64(r[1]*y) + float64(r[2]*z) + t
}

// ApplyAll is Apply on every point of pts, into dst, as long as pts (it
// may alias pts). Search and fast-score steps rotate inside ScorePass.
func (t Transform) ApplyAll(dst, pts []Vec3) {
	r, u, dst := &t.R, &t.T, dst[:len(pts)]
	for i, p := range pts {
		dst[i] = Vec3{row(&r[0], u[0], p[0], p[1], p[2]), row(&r[1], u[1], p[0], p[1], p[2]), row(&r[2], u[2], p[0], p[1], p[2])}
	}
}

// Cols is a chain as columns (SoA): point i is (X[i], Y[i], Z[i]).
type Cols struct{ X, Y, Z []float64 }

// ColsOf copies pts into columns carved from buf at stride m >= len(pts).
func ColsOf(buf []float64, m int, pts []Vec3) Cols {
	n := len(pts)
	c := Cols{buf[:n:n], buf[m : m+n : m+n], buf[2*m : 2*m+n : 2*m+n]}
	for i, p := range pts {
		c.X[i], c.Y[i], c.Z[i] = p[0], p[1], p[2]
	}
	return c
}

// Slice returns points lo to hi-1 of c.
func (c Cols) Slice(lo, hi int) Cols { return Cols{c.X[lo:hi], c.Y[lo:hi], c.Z[lo:hi]} }
