package geom

import "testing"

// checkGeomPasses runs newKabsch's sums through the body this GOARCH
// dispatches to and through the portable Go body, on n points from fuzz
// bytes, and requires equal bits in every sum. (ApplyAll has no assembly
// left: the search and fast-score steps rotate inside ScorePass, which
// FuzzScorePass checks.)
func checkGeomPasses(t *testing.T, data []byte, seed int64, n int) {
	v := kernelInput(data, seed, 6*n)
	p, q := make([]Vec3, n), make([]Vec3, n)
	for i := range p {
		p[i] = Vec3{v[3*i], v[3*i+1], v[3*i+2]}
		q[i] = Vec3{v[3*n+3*i], v[3*n+3*i+1], v[3*n+3*i+2]}
	}
	var got, want sums
	kabschSums(p, q, &got)
	kabschSumsGo(p, q, &want)
	g := append(append(append([]float64{}, got.cp[:]...), got.cq[:]...), got.ep, got.eq)
	w := append(append(append([]float64{}, want.cp[:]...), want.cq[:]...), want.ep, want.eq)
	for i := range got.s {
		g, w = append(g, got.s[i][:]...), append(w, want.s[i][:]...)
	}
	for i := range g {
		if !sameBits(g[i], w[i]) {
			t.Fatalf("kabschSums n=%d: sum %d = %x, Go body %x", n, i, g[i], w[i])
		}
	}
}

// FuzzGeomPasses requires the dispatched Kabsch sums to equal their
// portable Go body bit for bit at lengths 1-300 (1, 2, 3 and odd lengths
// among the seeds), with NaN, ±Inf, ±1e300, subnormal and signed-zero
// coordinates mixed in. The committed corpus's transform bytes, from the
// SSE2 ApplyAll this fuzz once held to its Go body, go unread.
func FuzzGeomPasses(f *testing.F) {
	f.Add([]byte{}, int64(1), uint16(1))
	f.Add([]byte{}, int64(2), uint16(2))
	f.Add([]byte{}, int64(3), uint16(3))
	f.Add([]byte{128, 0, 133, 0, 134, 136}, int64(4), uint16(7))
	f.Add([]byte{129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139, 140}, int64(5), uint16(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 128, 128}, int64(6), uint16(3))
	f.Add([]byte{}, int64(7), uint16(151))
	f.Add([]byte{140, 141, 142, 143}, int64(8), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, n uint16) {
		checkGeomPasses(t, data, seed, 1+int(n%300))
	})
}

// TestGeomPassesSpecialValues runs every special coordinate through
// every coordinate slot of a three-point problem.
func TestGeomPassesSpecialValues(t *testing.T) {
	for k := 0; k < 18; k++ {
		for b := 128; b < 128+len(kernelValues); b++ {
			data := make([]byte, 18)
			data[k] = byte(b)
			checkGeomPasses(t, data, int64(k), 3)
		}
	}
}

// BenchmarkKabschSums times newKabsch's two passes over 150 point pairs
// (ns/cell is per point pair).
func BenchmarkKabschSums(b *testing.B) {
	const n = 150
	v := kernelInput(nil, 3, 6*n)
	p, q := make([]Vec3, n), make([]Vec3, n)
	for i := range p {
		p[i] = Vec3{v[6*i], v[6*i+1], v[6*i+2]}
		q[i] = Vec3{v[6*i+3], v[6*i+4], v[6*i+5]}
	}
	var m sums
	benchBodies(b, n, func() { kabschSums(p, q, &m) }, func() { kabschSumsGo(p, q, &m) })
}

// BenchmarkApplyAll maps 150 points through a rotation and translation
// (ns/cell is per point).
func BenchmarkApplyAll(b *testing.B) {
	const n = 150
	v := kernelInput(nil, 4, 3*n)
	p, dst := make([]Vec3, n), make([]Vec3, n)
	for i := range p {
		p[i] = Vec3{v[3*i], v[3*i+1], v[3*i+2]}
	}
	tr := Transform{R: AxisAngle(V(1, 2, 3), 0.7), T: V(4, -5, 6)}
	for i := 0; i < b.N; i++ {
		tr.ApplyAll(dst, p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
}
