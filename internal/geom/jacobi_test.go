package geom_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rckalign/internal/geom"
	"rckalign/internal/synth"
)

// ck34 is the CA traces of synth's CK34 chains.
var ck34 = sync.OnceValue(func() [][]geom.Vec3 {
	ds := synth.CK34()
	chains := make([][]geom.Vec3, ds.Len())
	for i, s := range ds.Structures {
		chains[i] = s.CAs()
	}
	return chains
})

// fragmentKey is the key Superpose solves for a fragment of one CK34
// chain against a fragment of another, the shape of the rotation search's
// seeds: rng picks the chains, a length of 4 to 64 and the offsets.
func fragmentKey(rng *rand.Rand) [4][4]float64 {
	chains := ck34()
	x, y := chains[rng.Intn(len(chains))], chains[rng.Intn(len(chains))]
	l := min(4<<rng.Intn(5), len(x), len(y))
	i, j := rng.Intn(len(x)-l+1), rng.Intn(len(y)-l+1)
	return geom.KabschKey(x[i:i+l], y[j:j+l])
}

// cloudKey is the key of two unrelated clouds of 4 to 40 points.
func cloudKey(rng *rand.Rand) [4][4]float64 {
	n := 4 + rng.Intn(37)
	p, q := make([]geom.Vec3, n), make([]geom.Vec3, n)
	for i := range p {
		p[i] = geom.V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
		q[i] = geom.V(rng.Float64()*20-10, rng.Float64()*20-10, rng.Float64()*20-10)
	}
	return geom.KabschKey(p, q)
}

// jacobiValues are the entries the pair fuzz writes into a key: signed
// zeros (zero pivots, a diagonal key), NaN and infinities, values whose
// squares overflow (the sweep cap), a denormal, and ±1 (equal diagonal
// entries over a negative pivot make theta = -0).
var jacobiValues = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324, 1, -1}

// fuzzKey is a lane's key: from random clouds for an even seed, from a
// CK34 fragment pair for an odd one. Then byte k of data, if it is >= 128,
// sets entry k of the upper triangle (row-major, diagonal included) and
// its mirror to jacobiValues[(byte-128) % len].
func fuzzKey(seed int64, data []byte) [4][4]float64 {
	rng := rand.New(rand.NewSource(seed))
	var a [4][4]float64
	if seed%2 == 0 {
		a = cloudKey(rng)
	} else {
		a = fragmentKey(rng)
	}
	k := 0
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			if k < len(data) && data[k] >= 128 {
				v := jacobiValues[int(data[k]-128)%len(jacobiValues)]
				a[i][j], a[j][i] = v, v
			}
			k++
		}
	}
	return a
}

// checkJacobiPair requires maxEigen4x2 to return what two maxEigen4 calls
// return, eigenvalue and quaternion, to the last bit.
func checkJacobiPair(t *testing.T, a, b [4][4]float64) {
	t.Helper()
	la, qa, lb, qb := geom.MaxEigen4x2(a, b)
	for lane, got := range [2]struct {
		key  [4][4]float64
		l    float64
		quat [4]float64
	}{{a, la, qa}, {b, lb, qb}} {
		wl, wq := geom.MaxEigen4(got.key)
		same := geom.SameBits(got.l, wl)
		for k := range wq {
			same = same && geom.SameBits(got.quat[k], wq[k])
		}
		if !same {
			t.Fatalf("lane %d of %v / %v: maxEigen4x2 gives %x %x, maxEigen4 %x %x", lane, a, b, got.l, got.quat, wl, wq)
		}
	}
}

// FuzzJacobiPair requires the paired eigen-solve to equal two scalar
// solves bit for bit, on keys of random clouds and of CK34 fragment
// pairs, with zero pivots, diagonal keys, NaN, ±Inf and ±1e300 entries
// written into either lane (the committed corpus has one of each).
// Lanes converge at different sweeps, so the scalar tails run too.
func FuzzJacobiPair(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add([]byte{}, s, s+1)
	}
	f.Fuzz(func(t *testing.T, data []byte, seedA, seedB int64) {
		checkJacobiPair(t, fuzzKey(seedA, data), fuzzKey(seedB, data[min(len(data), 10):]))
	})
}

// eigenSink keeps the benchmarked eigen-solves live.
var eigenSink float64

// BenchmarkMaxEigen4 times the eigen-solve on 1024 keys of CK34 fragment
// pairs, one at a time and two in flight, in ns per solve.
func BenchmarkMaxEigen4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][4][4]float64, 1024)
	for i := range keys {
		keys[i] = fragmentKey(rng)
	}
	perSolve := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/solve")
	}
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				l, _ := geom.MaxEigen4(k)
				eigenSink += l
			}
		}
		perSolve(b)
	})
	b.Run("pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < len(keys); k += 2 {
				l1, _, l2, _ := geom.MaxEigen4x2(keys[k], keys[k+1])
				eigenSink += l1 + l2
			}
		}
		perSolve(b)
	})
}
