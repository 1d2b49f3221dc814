package geom

// scoreRow is score_amd64.s: scoreRowGo two lanes at a time on SSE2, the
// GOAMD64=v1 baseline. Its AVX2 scorePassQuad and maxPlusQuad run where
// cpuAVX2 finds the instructions and the OS's YMM state.

//go:noescape
func scoreRow(dst, yx, yy, yz []float64, px, py, pz, d02 float64)

//go:noescape
func scorePassQuad(set []int32, dis2 []float64, t *Transform, x, y *Cols, d02, cut2, first float64, mask bool) (sum float64, nCut int)

//go:noescape
func maxPlusQuad(blk, yq []float64, p *[12]float64, d02 float64)

func cpuAVX2() bool

var hasAVX2 = cpuAVX2()

// maxPlusFill runs maxPlusQuad on each block of four rows (the last one
// padded with copies of the last row, whose cells nothing reads), with
// the block above it: blk is the two blocks' 8(n+7) values.
func maxPlusFill(val []float64, xt []Vec3, yq []float64, d02 float64) {
	n := len(yq)/12 - 6
	if !hasAVX2 || n <= 0 {
		maxPlusFillGo(val, xt, yq, d02)
		return
	}
	stride, p := QuadCell(1, 0, n), [12]float64{}
	for b := 0; 4*b < len(xt); b++ {
		for c := range p {
			p[c] = xt[min(4*b+c%4, len(xt)-1)][c/4]
		}
		maxPlusQuad(val[b*stride:(b+2)*stride], yq, &p, d02)
	}
}
