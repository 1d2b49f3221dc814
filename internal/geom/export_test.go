package geom

import "testing"

// The eigen-solve tests build keys from synth's datasets, and synth
// imports geom, so they live in package geom_test and reach the unexported
// kernels through these.
var (
	MaxEigen4 = maxEigen4
	SameBits  = sameBits
)

// MaxEigen4x2 is maxEigen4x2 on copies of a and b.
func MaxEigen4x2(a, b [4][4]float64) (float64, [4]float64, float64, [4]float64) {
	return maxEigen4x2(&a, &b)
}

// KabschKey is Horn's key matrix Superpose solves for p and q.
func KabschKey(p, q []Vec3) [4][4]float64 { return newKabsch(p, q).key }

// ForcePortable makes the AVX2 kernels' callers, MaxPlusFill and
// ScorePass, run their portable bodies, as on an amd64 without AVX2,
// until tb's test ends.
func ForcePortable(tb testing.TB) {
	avx2 := hasAVX2
	hasAVX2 = false
	tb.Cleanup(func() { hasAVX2 = avx2 })
}
