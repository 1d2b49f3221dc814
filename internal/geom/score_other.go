//go:build !amd64

package geom

func scoreRow(dst, yx, yy, yz []float64, px, py, pz, d02 float64) {
	scoreRowGo(dst, yx, yy, yz, px, py, pz, d02)
}

func scoreSum(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64 {
	return scoreSumGo(dis2, a, b, d02, cut2, mask)
}

func maxPlusPair(val, yp []float64, px, py, pz, qx, qy, qz, d02 float64) {
	maxPlusPairGo(val, yp, px, py, pz, qx, qy, qz, d02)
}
