package geom

import "testing"

// checkGeomPasses runs newKabsch's sums and ApplyAll through the bodies
// this GOARCH dispatches to and through the portable Go bodies, on n
// points from fuzz bytes, and requires equal bits everywhere: every sum,
// every mapped coordinate, and the point past the end untouched. ApplyAll
// also runs in place, dst aliasing pts.
func checkGeomPasses(t *testing.T, data []byte, seed int64, n int) {
	v := kernelInput(data, seed, 6*n+12)
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

	tr := Transform{
		R: Mat3{{v[6*n], v[6*n+1], v[6*n+2]}, {v[6*n+3], v[6*n+4], v[6*n+5]}, {v[6*n+6], v[6*n+7], v[6*n+8]}},
		T: Vec3{v[6*n+9], v[6*n+10], v[6*n+11]},
	}
	guard := Vec3{12345.678, -1, 2}
	gotP, wantP := make([]Vec3, n+1), make([]Vec3, n+1)
	gotP[n], wantP[n] = guard, guard
	tr.ApplyAll(gotP[:n], p)
	applyAllGo(wantP[:n], p, &tr)
	inPlace := append([]Vec3(nil), p...)
	tr.ApplyAll(inPlace, inPlace)
	for i := 0; i <= n; i++ {
		for k := 0; k < 3; k++ {
			if !sameBits(gotP[i][k], wantP[i][k]) {
				t.Fatalf("ApplyAll n=%d: dst[%d][%d] = %x, Go body %x", n, i, k, gotP[i][k], wantP[i][k])
			}
			if i < n && !sameBits(inPlace[i][k], wantP[i][k]) {
				t.Fatalf("ApplyAll in place n=%d: dst[%d][%d] = %x, Go body %x", n, i, k, inPlace[i][k], wantP[i][k])
			}
		}
	}
}

// FuzzGeomPasses requires the dispatched Kabsch sums and ApplyAll to
// equal their portable Go bodies bit for bit at lengths 1-300 (1, 2, 3
// and odd lengths among the seeds), with NaN, ±Inf, ±1e300, subnormal and
// signed-zero coordinates and transform entries mixed in.
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
// every slot of a three-point problem: as a point coordinate, and as a
// rotation or translation entry.
func TestGeomPassesSpecialValues(t *testing.T) {
	for k := 0; k < 30; k++ {
		for b := 128; b < 128+len(kernelValues); b++ {
			data := make([]byte, 30)
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
	benchBodies(b, n, func() { tr.ApplyAll(dst, p) }, func() { applyAllGo(dst, p, &tr) })
}
