//go:build !amd64

package geom

func scoreRow(dst, yx, yy, yz []float64, px, py, pz, d02 float64) {
	scoreRowGo(dst, yx, yy, yz, px, py, pz, d02)
}

func scorePassQuad(set []int32, dis2 []float64, t *Transform, x, y *Cols, d02, cut2, first float64, mask bool) (float64, int) {
	return scorePassGo(set, dis2, t, x, y, d02, cut2, first, mask)
}

var hasAVX2 bool // the AVX2 kernels are amd64 assembly

func maxPlusFill(val []float64, xt []Vec3, yq []float64, d02 float64) {
	maxPlusFillGo(val, xt, yq, d02)
}
