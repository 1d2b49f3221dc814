package geom

// scoreRow, scoreSum and maxPlusPair are score_amd64.s: scoreRowGo,
// scoreSumGo and maxPlusPairGo two lanes at a time on SSE2, the
// GOAMD64=v1 baseline.

//go:noescape
func scoreRow(dst, yx, yy, yz []float64, px, py, pz, d02 float64)

//go:noescape
func scoreSum(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64

//go:noescape
func maxPlusPair(val, yp []float64, px, py, pz, qx, qy, qz, d02 float64)
