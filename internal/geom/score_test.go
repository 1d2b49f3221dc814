package geom

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64 to the last bit.
// Any NaN matches any NaN: IEEE 754 leaves which operand's payload an
// operation on two NaNs returns to the implementation, and the Go
// compiler is free to order the operands of a commutative add either way,
// so payloads are not part of the kernels' contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// kernelValues are the coordinates the equivalence fuzz mixes into
// ordinary ones: NaN, infinities, denormals, values whose squares
// overflow or underflow, and signed zeros.
var kernelValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -2.5e-310, 1e300, -1e300,
	1e-160, 0, math.Copysign(0, -1), 1, -3.8,
}

// kernelInput turns fuzz bytes into n ordinary coordinates in the range
// of real CA traces, replacing coordinate k with a special value when
// byte k of data is >= 128.
func kernelInput(data []byte, seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for k := range v {
		v[k] = (rng.Float64() - 0.5) * 120
		if k < len(data) && data[k] >= 128 {
			v[k] = kernelValues[int(data[k])%len(kernelValues)]
		}
	}
	return v
}

// checkScoreKernels runs both kernel shapes through the bodies this
// GOARCH dispatches to and through the portable Go bodies, on n elements
// starting at offset off of their buffers (so packed loads see every
// alignment), and requires equal bits everywhere and untouched memory
// past the end.
func checkScoreKernels(t *testing.T, data []byte, seed int64, n, off int, d02, cut2 float64, mask bool) {
	const guard = 12345.678
	v := kernelInput(data, seed, 6*n+3)
	buf := func() []float64 {
		b := make([]float64, off+n+1)
		b[off+n] = guard
		return b
	}
	vecs := func(c []float64) []Vec3 {
		p := make([]Vec3, off+n)
		for i := 0; i < n; i++ {
			p[off+i] = Vec3{c[3*i], c[3*i+1], c[3*i+2]}
		}
		return p[off:]
	}
	yx, yy, yz := buf(), buf(), buf()
	copy(yx[off:], v[:n])
	copy(yy[off:], v[n:2*n])
	copy(yz[off:], v[2*n:3*n])
	p := Vec3{v[6*n], v[6*n+1], v[6*n+2]}

	got, want := buf(), buf()
	ScoreRow(got[off:off+n], yx[off:], yy[off:], yz[off:], p, d02)
	scoreRowGo(want[off:off+n], yx[off:off+n], yy[off:off+n], yz[off:off+n], p[0], p[1], p[2], d02)
	for j := off; j <= off+n; j++ {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("ScoreRow n=%d off=%d: dst[%d] = %x, Go body %x", n, off, j-off, got[j], want[j])
		}
	}

	a, b := vecs(v[:3*n]), vecs(v[3*n:6*n])
	gotD, wantD := buf(), buf()
	gotS := ScoreSum(gotD[off:off+n], a, b, d02, cut2, mask)
	wantS := scoreSumGo(wantD[off:off+n], a, b, d02, cut2, mask)
	if !sameBits(gotS, wantS) {
		t.Fatalf("ScoreSum n=%d off=%d mask=%t: sum %x, Go body %x", n, off, mask, gotS, wantS)
	}
	for i := off; i <= off+n; i++ {
		if !sameBits(gotD[i], wantD[i]) {
			t.Fatalf("ScoreSum n=%d off=%d: dis2[%d] = %x, Go body %x", n, off, i-off, gotD[i], wantD[i])
		}
	}
}

// FuzzScoreKernels requires the dispatched ScoreRow and ScoreSum to equal
// the portable Go bodies bit for bit at lengths 0-300, mask on and off,
// with NaN, ±Inf, denormal and ±1e300 coordinates mixed in.
func FuzzScoreKernels(f *testing.F) {
	f.Add([]byte{}, int64(1), uint16(0), false, 25.0, 64.0)
	f.Add([]byte{}, int64(2), uint16(1), true, 25.0, 64.0)
	f.Add([]byte{0, 200}, int64(3), uint16(7), true, 17.3, 30.0)
	f.Add([]byte{128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139}, int64(4), uint16(12), true, 25.0, 900.0)
	f.Add([]byte{255, 1, 140, 141, 250, 3}, int64(5), uint16(300), false, 0.0, math.Inf(1))
	f.Add([]byte{9, 9, 143}, int64(6), uint16(151), true, math.NaN(), -1.0)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, n uint16, mask bool, d02, cut2 float64) {
		checkScoreKernels(t, data, seed, int(n%301), int(seed&1), d02, cut2, mask)
	})
}

// maxPlusValues are the coordinates the max-plus fuzz mixes into
// ordinary ones. All are finite, as the gap-free rounds' guard requires:
// ±1e300 overflow a squared distance, so their terms are +0; ±1.2e154
// leave it just below the overflow, so against a unit d02 their terms are
// subnormal; 5e-324 is a denormal coordinate; and the signed zeros and
// small integers repeat, so terms and DP cells tie.
var maxPlusValues = []float64{1e300, -1e300, 1.2e154, -1.2e154, 5e-324, 0, math.Copysign(0, -1), 1, 2}

// maxPlusChain turns fuzz bytes into n points: ordinary coordinates in
// the range of real CA traces, except that byte k < 64 puts coordinate k
// on a four-value grid (ties) and byte k >= 192 makes it a maxPlusValues
// entry.
func maxPlusChain(data []byte, seed int64, n int) []Vec3 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]Vec3, n)
	for k := 0; k < 3*n; k++ {
		c := (rng.Float64() - 0.5) * 120
		if k < len(data) && data[k] < 64 {
			c = float64(data[k] % 4)
		} else if k < len(data) && data[k] >= 192 {
			c = maxPlusValues[int(data[k])%len(maxPlusValues)]
		}
		p[k/3][k%3] = c
	}
	return p
}

// checkMaxPlusFill runs MaxPlusFill through the kernel this CPU
// dispatches to and through the portable body, and requires equal bits
// in every cell of the table, read through QuadCell, and an untouched
// guard past its end. The tables start as NaN and −1, so a cell either
// body leaves unwritten differs. The Go body reads only each mirror
// entry's y[k]; the assembly reads every lane, so the quad mirror is
// checked lane by lane first.
func checkMaxPlusFill(t *testing.T, data []byte, seed int64, rows, cols int, d02 float64) {
	const guard = 12345.678
	xt := maxPlusChain(data, seed, rows)
	y := maxPlusChain(data[min(len(data), 3*rows):], seed+1, cols)
	yq := QuadMirror(make([]float64, 12*(cols+6)+3), y)
	for c, v := range yq {
		e, k, axis, want := c/12, c%4, c%12/4, 0.0
		if r := e - 2*k; r >= 0 && r < cols {
			want = y[r][axis]
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("quad mirror entry %d lane %d axis %d = %g, want %g", e, k, axis, v, want)
		}
	}
	size := QuadCell(rows+4, 0, cols)
	got, want := make([]float64, size+1), make([]float64, size+1)
	for c := range size {
		got[c], want[c] = math.NaN(), -1
	}
	got[size], want[size] = guard, guard
	MaxPlusFill(got[:size], xt, yq, d02)
	avx2 := hasAVX2
	hasAVX2 = false
	MaxPlusFill(want[:size], xt, yq, d02)
	hasAVX2 = avx2
	for i := range rows + 1 {
		for j := range cols + 1 {
			if c := QuadCell(i, j, cols); math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%dx%d d02=%g: cell (%d, %d) = %x, portable body %x", rows, cols, d02, i, j, got[c], want[c])
			}
		}
	}
	if got[size] != guard || want[size] != guard {
		t.Fatalf("%dx%d: guard past the table = %g, %g", rows, cols, got[size], want[size])
	}
}

// FuzzMaxPlusKernel requires the gap-free DP fill to equal the portable
// body bit for bit: 0-13 rows (every residue count mod 4, and a padded
// last block), 0-300 columns (1-7 among the seeds, shorter than the six
// masked steps and just past them), tied terms and cells, huge finite
// coordinates whose terms underflow to +0 and subnormal terms (under the
// 1e-304 seed, a distance beyond ~70 A has a subnormal or +0 term).
func FuzzMaxPlusKernel(f *testing.F) {
	f.Add([]byte{}, int64(1), uint8(1), uint16(1), 25.0)
	f.Add([]byte{}, int64(2), uint8(2), uint16(2), 25.0)
	f.Add([]byte{}, int64(7), uint8(3), uint16(3), 25.0)
	f.Add([]byte{}, int64(9), uint8(13), uint16(5), 25.0)
	f.Add([]byte{}, int64(10), uint8(12), uint16(6), 9.0)
	f.Add([]byte{}, int64(11), uint8(11), uint16(7), 30.0)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, int64(3), uint8(5), uint16(3), 4.0)
	f.Add([]byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 0, 0, 0}, int64(4), uint8(4), uint16(9), 1.0)
	f.Add([]byte{194, 10, 10, 195, 10, 10, 100, 100}, int64(5), uint8(3), uint16(300), 1e-304)
	f.Add([]byte{}, int64(6), uint8(7), uint16(151), 17.3)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1}, int64(8), uint8(9), uint16(4), 2.0)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, rows uint8, cols uint16, d02 float64) {
		if !(d02 > 0 && d02 <= math.MaxFloat64) {
			t.Skip() // a NaN term is outside the kernel's domain
		}
		checkMaxPlusFill(t, data, seed, int(rows%14), int(cols%301), d02)
	})
}

// TestScoreSumMask pins the mask's meaning on a hand-checked case: only
// pairs with dis2 <= cut2 are added, and dis2 is written either way.
func TestScoreSumMask(t *testing.T) {
	a := []Vec3{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	b := []Vec3{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}
	dis2 := make([]float64, 3)
	if got := ScoreSum(dis2, a, b, 4, 4, true); got != 4/(4+1.0)+4/(4+4.0) {
		t.Errorf("masked sum = %v", got)
	}
	if dis2[2] != 9 {
		t.Errorf("dis2 = %v", dis2)
	}
	if got := ScoreSum(dis2, a, b, 4, 4, false); got != 4/(4+1.0)+4/(4+4.0)+4/(4+9.0) {
		t.Errorf("unmasked sum = %v", got)
	}
}

// termULPs bounds how far Term's one divide, d02/(d02+d), lands from the
// two-divide form 1/(1+d/d02) it replaced. Against the exact value T the
// old form rounds three times (quotient, sum, reciprocal) and the new one
// twice (sum, quotient), so they differ by at most 5u·T, u = 2^-53. Within
// T's binade an ulp is more than u·T, so that is under 5 ulps; straddling
// a power of two it is at most 5 of the lower binade's. The test's sample
// reaches 3.
const termULPs = 5

// ulpDist is the number of float64 values from a to b, both >= +0.
func ulpDist(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	return max(ua, ub) - min(ua, ub)
}

// TestTermOneDivide checks Term's domain contract, which MaxPlusFill's
// exactness argument rests on, and its distance from the two-divide form.
// For finite coordinates and 0 < d02 < +Inf a term is in [+0, 1] and is
// neither −0 nor NaN; d² = 0 gives exactly 1 and an overflowed d² exactly
// +0. Where the old form's result is a normal number the two forms are
// within termULPs ulps. Below that, the old form's quotient d/d02 can
// overflow to a +0 term where the new one keeps a subnormal, so there only
// both being under the smallest normal is required.
func TestTermOneDivide(t *testing.T) {
	coords := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-160, 1, -3.8, 1.2e154, -1.2e154,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	d02s := []float64{5e-324, 1e-300, 0.25, 1, 20.25, 64, 1e300, math.MaxFloat64}
	for _, d02 := range d02s {
		if got := Term(-3.8, 1e300, 5e-324, -3.8, 1e300, 5e-324, d02); got != 1 {
			t.Errorf("d² = 0, d02 = %g: term %g, want 1", d02, got)
		}
		if got := Term(1e300, 0, 0, -1e300, 0, 0, d02); got != 0 || math.Signbit(got) {
			t.Errorf("d² = +Inf, d02 = %g: term %g, want +0", d02, got)
		}
	}
	rng := rand.New(rand.NewSource(1))
	coord := func() float64 {
		if rng.Intn(4) == 0 {
			return coords[rng.Intn(len(coords))]
		}
		return (rng.Float64() - 0.5) * 120
	}
	var worst uint64
	for k := 0; k < 1_000_000; k++ {
		px, py, pz, qx, qy, qz := coord(), coord(), coord(), coord(), coord(), coord()
		d02 := math.Exp(rng.Float64()*40 - 20)
		if k%8 == 0 {
			d02 = d02s[rng.Intn(len(d02s))]
		}
		got := Term(px, py, pz, qx, qy, qz, d02)
		d := sqDist(px, py, pz, qx, qy, qz)
		if !(got >= 0 && got <= 1) || math.Signbit(got) {
			t.Fatalf("Term(%g, %g, %g; %g, %g, %g; d02 %g) = %g, outside [+0, 1]", px, py, pz, qx, qy, qz, d02, got)
		}
		if (d == 0 && got != 1) || (math.IsInf(d, 1) && got != 0) {
			t.Fatalf("d² = %g, d02 = %g: term %g", d, d02, got)
		}
		if d02 > 1e300 || math.IsInf(d, 1) {
			continue // d02 + d² may overflow where d²/d02 does not; no real d0 is that large
		}
		old := 1 / (1 + d/d02)
		if old < 0x1p-1022 && got < 0x1p-1022 {
			continue
		}
		u := ulpDist(got, old)
		if u > termULPs {
			t.Fatalf("d² = %g, d02 = %g: one divide %g, two divides %g, %d ulps apart", d, d02, got, old, u)
		}
		worst = max(worst, u)
	}
	t.Logf("largest distance from the two-divide form: %d ulps (bound %d)", worst, termULPs)
}

// benchBodies runs a kernel benchmark on the dispatched body and on the
// portable Go body, reporting ns per term.
func benchBodies(b *testing.B, n int, kernel, goBody func()) {
	for _, body := range []struct {
		name string
		run  func()
	}{{"kernel", kernel}, {"go", goBody}} {
		b.Run(body.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
		})
	}
}

// BenchmarkScoreRow fills one 150-residue score-matrix row.
func BenchmarkScoreRow(b *testing.B) {
	const n = 150
	v := kernelInput(nil, 1, 3*n+3)
	dst := make([]float64, n)
	yx, yy, yz := v[:n], v[n:2*n], v[2*n:3*n]
	p := Vec3{v[3*n], v[3*n+1], v[3*n+2]}
	benchBodies(b, n,
		func() { ScoreRow(dst, yx, yy, yz, p, 25) },
		func() { scoreRowGo(dst, yx, yy, yz, p[0], p[1], p[2], 25) })
}

// BenchmarkScoreSum scores 150 aligned pairs under the d8 mask.
func BenchmarkScoreSum(b *testing.B) {
	const n = 150
	v := kernelInput(nil, 2, 6*n)
	x, y := make([]Vec3, n), make([]Vec3, n)
	for i := range x {
		x[i] = Vec3{v[6*i], v[6*i+1], v[6*i+2]}
		y[i] = x[i].Add(Vec3{v[6*i+3], v[6*i+4], v[6*i+5]}.Scale(0.1))
	}
	dis2 := make([]float64, n)
	benchBodies(b, n,
		func() { ScoreSum(dis2, x, y, 25, 64, true) },
		func() { scoreSumGo(dis2, x, y, 25, 64, true) })
}
