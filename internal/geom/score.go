package geom

import (
	"math/bits"
	"unsafe"
)

// The TM-score term d0²/(d0²+d²), one divide, is the inner loop of every
// score matrix (ScoreRow), search or fast-score step (ScorePass) and
// gap-free DP round (MaxPlusFill). On amd64 ScoreRow is SSE2 assembly, two
// terms per DIVPD, the others AVX2, four, where the CPU has AVX2. Every
// lane takes the scalar operation order, bit-identical to the Go bodies
// below, which every other GOARCH (and an amd64 without AVX2) runs and
// the tests compare against (DESIGN.md §16, "packed TM terms", "gap-free
// rounds are max-plus" and "one pass per step").

// sqDist is |p-q|² as ((dx*dx + dy*dy) + dz*dz), the one operation order
// of every kernel body. The conversions forbid fused multiply-adds, which
// the assembly never uses, so every GOARCH rounds alike.
func sqDist(px, py, pz, qx, qy, qz float64) float64 {
	dx, dy, dz := px-qx, py-qy, pz-qz
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// Term is the TM-score term d02/(d02+|p-q|²), bit-identical to the entry
// ScoreRow writes for p and q: in [+0, 1], never −0 or NaN, for finite
// coordinates and 0 < d02 < +Inf (TestTermOneDivide).
func Term(px, py, pz, qx, qy, qz, d02 float64) float64 {
	return d02 / (d02 + sqDist(px, py, pz, qx, qy, qz))
}

// ScoreRow sets dst[j] = d02/(d02+d) for every j of dst, where d is the
// squared distance from p to (yx[j], yy[j], yz[j]): one row of a TM score
// matrix against a chain mirrored as structure-of-arrays. yx, yy and yz
// must be at least as long as dst.
func ScoreRow(dst, yx, yy, yz []float64, p Vec3, d02 float64) {
	n := len(dst)
	scoreRow(dst, yx[:n], yy[:n], yz[:n], p[0], p[1], p[2], d02)
}

// ScorePass is one step of the rotation search or of a fast score, one
// pass over n = len(dis2) aligned pairs: it maps x[i] through t (Apply),
// sets dis2[i] to its squared distance from y[i] (Term's d²), and returns
// the sum of d02/(d02+dis2[i]), added in index order (with mask, only
// over the pairs with dis2[i] <= cut2), and Collect(set, dis2, first).
// x and y hold at least n points; set holds ceil(n/32) words or none.
func ScorePass(set []int32, dis2 []float64, t *Transform, x, y Cols, d02, cut2, first float64, mask bool) (sum float64, nCut int) {
	n := len(dis2)
	if x, y = x.Slice(0, n), y.Slice(0, n); len(set) > 0 {
		set = set[:(n+31)/32]
	}
	if !hasAVX2 || n < 4 {
		return scorePassGo(set, dis2, t, &x, &y, d02, cut2, first, mask)
	}
	return scorePassQuad(set, dis2, t, &x, &y, d02, cut2, first, mask)
}

// Collect makes the bitset set, ceil(len(dis2)/32) words, hold the
// indices i with dis2[i] < cutoff and returns how many there are.
func Collect(set []int32, dis2 []float64, cutoff float64) (nCut int) {
	for w := range set {
		var word uint32
		for b, di := range dis2[w*32 : min(w*32+32, len(dis2))] {
			if di < cutoff {
				word |= 1 << (uint(b) & 31)
			}
		}
		set[w], nCut = int32(word), nCut+bits.OnesCount32(word)
	}
	return nCut
}

// QuadMirror returns the fixed chain y interleaved for MaxPlusFill,
// carved 32-byte aligned from buf, which holds 12*(len(y)+6)+3 values, so
// the kernel's loads never straddle a cache line. Entry e holds, per
// axis, y[e], y[e-2], y[e-4] and y[e-6], so one 32-byte load brings each
// row of a four-row block its coordinate. The entries run 6 past the
// chain so the last block's lower rows reach its end; a lane with no
// residue holds +0.
func QuadMirror(buf []float64, y []Vec3) []float64 {
	yq := buf[-uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%32/8:][:12*(len(y)+6)]
	clear(yq)
	for c := range 4 * len(y) {
		r, k := c/4, c%4 // y[r] is lane k of entry r+2k
		e := 12*(r+2*k) + k
		yq[e], yq[e+4], yq[e+8] = y[r][0], y[r][1], y[r][2]
	}
	return yq
}

// QuadCell is the index of DP cell (i, j) in MaxPlusFill's table for a
// fixed chain of n residues. Rows go in blocks of n+7 four-value slots:
// row i is lane k = (i+3)%4 of block (i+3)/4 (row 0 is lane 3 of block
// 0), and its column j is slot j+2k, so each slot holds one step of the
// skewed four-row fill.
func QuadCell(i, j, n int) int {
	b, k := (i+3)/4, (i+3)%4
	return 4*(b*(n+7)+j+2*k) + k
}

// MaxPlusFill computes the value table of a gap-free NWDP round without
// writing its score matrix. With n = len(yq)/12-6, val holds at least
// QuadCell(len(xt)+4, 0, n) values, and cell (i, j), at val[QuadCell(i,
// j, n)], becomes +0 in row 0 and column 0, and otherwise
//
//	max(cell(i-1, j-1) + s, cell(i-1, j), cell(i, j-1))
//
// where s is the Term of xt[i-1] against y[j-1], the fixed chain
// interleaved in yq by QuadMirror. Every cell is written by this call;
// the rest of val is scratch. Every term must be a number (finite
// coordinates, 0 < d02 < +Inf): then every cell is a sum of terms in
// [+0, 1], never −0 or NaN, so the maximum is the same bits in any order.
func MaxPlusFill(val []float64, xt []Vec3, yq []float64, d02 float64) {
	n := len(yq)/12 - 6
	for j := range n + 1 {
		val[QuadCell(0, j, n)] = 0
	}
	maxPlusFill(val, xt, yq, d02)
}

// maxPlusFillGo is MaxPlusFill's portable body below row 0, row by row.
func maxPlusFillGo(val []float64, xt []Vec3, yq []float64, d02 float64) {
	n := len(yq)/12 - 6
	for i, p := range xt {
		up, row := val[QuadCell(i, 0, n):][:4*n+1], val[QuadCell(i+1, 0, n):][:4*n+1]
		row[0] = 0
		left := 0.0
		for j := range n {
			e := yq[12*j : 12*j+9]
			v := up[4*j] + Term(p[0], p[1], p[2], e[0], e[4], e[8], d02)
			if u := up[4*j+4]; u > v {
				v = u
			}
			if left > v {
				v = left
			}
			row[4*j+4] = v
			left = v
		}
	}
}

// scoreRowGo is ScoreRow's portable body; all slices have len(dst).
func scoreRowGo(dst, yx, yy, yz []float64, px, py, pz, d02 float64) {
	yx, yy, yz = yx[:len(dst)], yy[:len(dst)], yz[:len(dst)]
	for j := range dst {
		dst[j] = Term(px, py, pz, yx[j], yy[j], yz[j], d02)
	}
}

// scorePassGo is ScorePass's portable body; x and y hold len(dis2)
// points and set ceil(len(dis2)/32) words or none.
func scorePassGo(set []int32, dis2 []float64, t *Transform, x, y *Cols, d02, cut2, first float64, mask bool) (sum float64, nCut int) {
	n, r, u := len(dis2), t.R, t.T
	xx, xy, xz, yx, yy, yz := x.X[:n], x.Y[:n], x.Z[:n], y.X[:n], y.Y[:n], y.Z[:n]
	for i, px := range xx {
		py, pz := xy[i], xz[i]
		di := sqDist(row(&r[0], u[0], px, py, pz), row(&r[1], u[1], px, py, pz), row(&r[2], u[2], px, py, pz), yx[i], yy[i], yz[i])
		if dis2[i] = di; !mask || di <= cut2 {
			sum += d02 / (d02 + di)
		}
	}
	return sum, Collect(set, dis2, first)
}
