package geom

import (
	"errors"
	"fmt"
	"math"
)

// Kernel misuse sentinels. The superposition routines sit on the hot
// path of every comparison, so precondition violations still panic —
// but with errors wrapping these sentinels, so a recovery boundary
// (tmalign.TryCompare) can distinguish bad kernel input from a genuine
// bug and turn it into a caller-visible error.
var (
	// ErrPointMismatch reports point sets of different lengths.
	ErrPointMismatch = errors.New("geom: point sets differ in length")
	// ErrNoPoints reports a superposition over zero points.
	ErrNoPoints = errors.New("geom: superposition of empty point sets")
)

// Superpose computes the rigid transform t that, applied to the mobile
// point set p, minimises the RMSD to the fixed point set q
// (min over rotations R, translations T of sum |R*p_i + T - q_i|^2).
// The two slices must have equal length n >= 1. It returns the optimal
// transform and the minimal RMSD.
//
// The rotation is found with Horn's quaternion method: the optimal
// rotation is the eigenvector for the largest eigenvalue of a symmetric
// 4x4 matrix built from the covariance of the centred point sets. Unlike
// plain Kabsch/SVD this never produces a reflection.
func Superpose(p, q []Vec3) (Transform, float64) {
	k := newKabsch(p, q)
	lambda, quat := maxEigen4(k.key)
	return k.finish(lambda, quat)
}

// Superpose2 is two independent Superpose calls, (p1, q1) and (p2, q2),
// with their eigen-solves in flight together: on amd64 the two Jacobi
// iterations share SSE2 lanes. Each result is bit-identical to Superpose.
func Superpose2(p1, q1, p2, q2 []Vec3) (t1 Transform, rmsd1 float64, t2 Transform, rmsd2 float64) {
	k1, k2 := newKabsch(p1, q1), newKabsch(p2, q2)
	l1, quat1, l2, quat2 := maxEigen4x2(&k1.key, &k2.key)
	t1, rmsd1 = k1.finish(l1, quat1)
	t2, rmsd2 = k2.finish(l2, quat2)
	return t1, rmsd1, t2, rmsd2
}

// kabsch is one superposition problem up to its eigen-solve: Horn's key
// matrix and what finish needs to turn the key's top eigenpair into the
// transform and the RMSD.
type kabsch struct {
	key    [4][4]float64
	cp, cq Vec3
	e      float64 // sum |p_i - cp|^2 + sum |q_i - cq|^2
	n      int
}

func newKabsch(p, q []Vec3) kabsch {
	if len(p) != len(q) {
		panic(fmt.Errorf("%w (Superpose: %d vs %d)", ErrPointMismatch, len(p), len(q)))
	}
	n := len(p)
	if n == 0 {
		panic(fmt.Errorf("%w (Superpose)", ErrNoPoints))
	}
	var m sums
	kabschSums(p, q[:n], &m)
	s := &m.s
	return kabsch{
		// Horn's symmetric 4x4 key matrix.
		key: [4][4]float64{
			{s[0][0] + s[1][1] + s[2][2], s[1][2] - s[2][1], s[2][0] - s[0][2], s[0][1] - s[1][0]},
			{s[1][2] - s[2][1], s[0][0] - s[1][1] - s[2][2], s[0][1] + s[1][0], s[2][0] + s[0][2]},
			{s[2][0] - s[0][2], s[0][1] + s[1][0], -s[0][0] + s[1][1] - s[2][2], s[1][2] + s[2][1]},
			{s[0][1] - s[1][0], s[2][0] + s[0][2], s[1][2] + s[2][1], -s[0][0] - s[1][1] + s[2][2]},
		},
		cp: m.cp,
		cq: m.cq,
		e:  m.ep + m.eq,
		n:  n,
	}
}

// sums are newKabsch's two passes over the points: the centroids, then
// the squared spreads and the covariance matrix S = sum (p_i - cp)
// (q_i - cq)^T about them, in the layout kabsch_amd64.s stores.
type sums struct {
	cp, cq Vec3
	ep, eq float64 // sum |p_i - cp|^2, sum |q_i - cq|^2
	s      Mat3
}

// kabschSumsGo is kabschSums' portable body; len(q) == len(p) >= 1.
// Every sum is one addition chain in index order (the centroids in
// Centroid's), unrolled into scalars to keep the loops free of array
// indexing.
func kabschSumsGo(p, q []Vec3, m *sums) {
	n := len(p)
	q = q[:n]
	var cpx, cpy, cpz, cqx, cqy, cqz float64
	for i := 0; i < n; i++ {
		a, b := &p[i], &q[i]
		cpx += a[0]
		cpy += a[1]
		cpz += a[2]
		cqx += b[0]
		cqy += b[1]
		cqz += b[2]
	}
	inv := 1 / float64(n)
	cpx *= inv
	cpy *= inv
	cpz *= inv
	cqx *= inv
	cqy *= inv
	cqz *= inv

	var s00, s01, s02, s10, s11, s12, s20, s21, s22, ep, eq float64
	for i := 0; i < n; i++ {
		pi, qi := &p[i], &q[i]
		ax, ay, az := pi[0]-cpx, pi[1]-cpy, pi[2]-cpz
		bx, by, bz := qi[0]-cqx, qi[1]-cqy, qi[2]-cqz
		ep += ax*ax + ay*ay + az*az
		eq += bx*bx + by*by + bz*bz
		s00 += ax * bx
		s01 += ax * by
		s02 += ax * bz
		s10 += ay * bx
		s11 += ay * by
		s12 += ay * bz
		s20 += az * bx
		s21 += az * by
		s22 += az * bz
	}
	*m = sums{Vec3{cpx, cpy, cpz}, Vec3{cqx, cqy, cqz}, ep, eq, Mat3{{s00, s01, s02}, {s10, s11, s12}, {s20, s21, s22}}}
}

// finish turns the key's largest eigenvalue and its quaternion into the
// optimal transform and the minimal RMSD.
func (k *kabsch) finish(lambda float64, quat [4]float64) (Transform, float64) {
	r := quatToMat(quat)
	// Residual: E = ep + eq - 2*lambda (clamped, can go slightly negative
	// from rounding for exact matches).
	e := k.e - 2*lambda
	if e < 0 {
		e = 0
	}
	rmsd := math.Sqrt(e / float64(k.n))
	return Transform{R: r, T: k.cq.Sub(r.MulVec(k.cp))}, rmsd
}

// quatToMat converts a unit quaternion (w, x, y, z) to a rotation matrix.
func quatToMat(q [4]float64) Mat3 {
	w, x, y, z := q[0], q[1], q[2], q[3]
	return Mat3{
		{w*w + x*x - y*y - z*z, 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), w*w - x*x + y*y - z*z, 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), w*w - x*x - y*y + z*z},
	}
}

// maxEigen4 returns the largest eigenvalue of the symmetric 4x4 matrix a
// and its (unit) eigenvector, using cyclic Jacobi sweeps. Jacobi is exact
// enough here (the matrix is tiny and symmetric) and has no numerical
// failure modes for this use.
func maxEigen4(a [4][4]float64) (float64, [4]float64) {
	v := [4][4]float64{{1}, {0, 1}, {0, 0, 1}, {0, 0, 0, 1}} // accumulates the rotations
	return jacobi(&a, &v, 0, 0)
}

// jacobiSweeps caps the cyclic sweeps of one eigen-solve.
const jacobiSweeps = 64

// jacobi runs maxEigen4's sweeps on a, accumulating the rotations into
// v, from rotation rot of sweep sweep on. A sweep's rotations 0-5 are
// the pivots (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), after the
// convergence test, so (sweep, 0) tests before it rotates. It returns
// maxEigen4's result. maxEigen4x2 hands each lane here at the point its
// paired run stopped.
func jacobi(a, v *[4][4]float64, sweep, rot int) (float64, [4]float64) {
	for ; sweep < jacobiSweeps; sweep, rot = sweep+1, 0 {
		if rot == 0 {
			off := 0.0
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					off += float64(a[i][j] * a[i][j])
				}
			}
			if off < 1e-24 {
				break
			}
		}
		for i, r := 0, 0; i < 4; i++ {
			for j := i + 1; j < 4; j, r = j+1, r+1 {
				if r < rot || a[i][j] == 0 {
					continue
				}
				// Compute the Jacobi rotation (c, s) that zeroes a[i][j]. The
				// float64 conversions forbid fused multiply-adds, which
				// jacobi2 never uses.
				theta := (a[j][j] - a[i][i]) / (2 * a[i][j])
				t := 1 / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				// Apply rotation: a = J^T a J on rows/cols i, j, and v = v J.
				for k := 0; k < 4; k++ {
					aik, ajk := a[i][k], a[j][k]
					a[i][k] = float64(c*aik) - float64(s*ajk)
					a[j][k] = float64(s*aik) + float64(c*ajk)
					vki, vkj := v[k][i], v[k][j]
					v[k][i] = float64(c*vki) - float64(s*vkj)
					v[k][j] = float64(s*vki) + float64(c*vkj)
				}
				for k := 0; k < 4; k++ {
					aki, akj := a[k][i], a[k][j]
					a[k][i] = float64(c*aki) - float64(s*akj)
					a[k][j] = float64(s*aki) + float64(c*akj)
				}
			}
		}
	}
	// Pick the largest eigenvalue on the diagonal.
	best := 0
	for i := 1; i < 4; i++ {
		if a[i][i] > a[best][best] {
			best = i
		}
	}
	var vec [4]float64
	for k := 0; k < 4; k++ {
		vec[k] = v[k][best]
	}
	// Normalise (guards against drift over sweeps).
	n := math.Sqrt(vec[0]*vec[0] + vec[1]*vec[1] + vec[2]*vec[2] + vec[3]*vec[3])
	if n > 0 {
		for k := range vec {
			vec[k] /= n
		}
	}
	return a[best][best], vec
}
