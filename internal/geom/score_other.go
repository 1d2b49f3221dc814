//go:build !amd64

package geom

func scoreRow(dst, yx, yy, yz []float64, px, py, pz, d02 float64) {
	scoreRowGo(dst, yx, yy, yz, px, py, pz, d02)
}

func scoreSum(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64 {
	return scoreSumGo(dis2, a, b, d02, cut2, mask)
}

var hasAVX2 bool // MaxPlusFill's AVX2 kernel is amd64 assembly

func maxPlusFill(val []float64, xt []Vec3, yq []float64, d02 float64) {
	maxPlusFillGo(val, xt, yq, d02)
}
