//go:build !amd64

package geom

func maxEigen4x2(a, b *[4][4]float64) (float64, [4]float64, float64, [4]float64) {
	la, qa := maxEigen4(*a)
	lb, qb := maxEigen4(*b)
	return la, qa, lb, qb
}

func kabschSums(p, q []Vec3, m *sums) { kabschSumsGo(p, q, m) }
