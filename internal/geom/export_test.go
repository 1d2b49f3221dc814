package geom

// The eigen-solve tests build keys from synth's datasets, and synth
// imports geom, so they live in package geom_test and reach the unexported
// kernels through these.
var (
	MaxEigen4   = maxEigen4
	MaxEigen4x2 = maxEigen4x2
	SameBits    = sameBits
)

// KabschKey is Horn's key matrix Superpose solves for p and q.
func KabschKey(p, q []Vec3) [4][4]float64 { return newKabsch(p, q).key }
