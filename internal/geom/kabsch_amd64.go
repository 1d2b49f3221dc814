package geom

// jacobi2 is kabsch_amd64.s: jacobi's sweeps on two matrices (and their
// rotation accumulators) interleaved lane by lane, from (0, 0) until
// either lane converges or meets a zero pivot, or the sweep cap.
//
//go:noescape
func jacobi2(a, v *[4][4][2]float64) (sweep, rot int)

// maxEigen4x2 is maxEigen4(a) and maxEigen4(b) with the two eigen-solves
// in flight together: jacobi2 runs both while neither needs the scalar
// loop's branches, then jacobi finishes each lane from where it stopped.
// Both results are bit-identical to maxEigen4's; a and b are scratch.
func maxEigen4x2(a, b *[4][4]float64) (float64, [4]float64, float64, [4]float64) {
	var m, w [4][4][2]float64
	lanes(&m, &w, a, b)
	sweep, rot := jacobi2(&m, &w)
	var va, vb [4][4]float64
	for i := range m {
		for j := range m[i] {
			a[i][j], b[i][j] = m[i][j][0], m[i][j][1]
			va[i][j], vb[i][j] = w[i][j][0], w[i][j][1]
		}
	}
	la, qa := jacobi(a, &va, sweep, rot)
	lb, qb := jacobi(b, &vb, sweep, rot)
	return la, qa, lb, qb
}

// lanes interleaves keys a and b into jacobi2's lanes m, and sets the
// identity as both lanes' rotation accumulator in w, which is zero.
func lanes(m, w *[4][4][2]float64, a, b *[4][4]float64) {
	for i := range m {
		for j := range m[i] {
			m[i][j] = [2]float64{a[i][j], b[i][j]}
		}
		w[i][i] = [2]float64{1, 1}
	}
}

// kabschSums and applyAll are kabschSumsGo and applyAllGo in SSE2.
//
//go:noescape
func kabschSums(p, q []Vec3, m *sums)

//go:noescape
func applyAll(dst, pts []Vec3, t *Transform)
