package geom

// The TM-score term d0²/(d0²+d²), one divide, is the inner loop of every
// TM-align score matrix and rotation-search scoring pass. ScoreRow and
// ScoreSum are its two shapes, and MaxPlusFill folds it into the value
// table of a gap-free DP round. On amd64 their bodies are SSE2 assembly,
// two terms per packed SUBPD/MULPD/ADDPD/DIVPD in exactly the scalar
// operation order, bit-identical to the Go bodies below, which every
// other GOARCH runs and the tests compare against (DESIGN.md §16,
// "packed TM terms" and "gap-free rounds are max-plus").

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

// ScoreSum sets dis2[i] = |a[i]-b[i]|² for every i of a and returns the
// sum of d02/(d02+dis2[i]), added in index order; with mask, only the
// pairs with dis2[i] <= cut2 are added. b and dis2 must be at least as
// long as a.
func ScoreSum(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64 {
	n := len(a)
	return scoreSum(dis2[:n], a, b[:n], d02, cut2, mask)
}

// PairMirror fills dst, which holds 6*len(y) values, with the fixed
// chain y interleaved for MaxPlusFill: entry k holds, per axis, y[k] and
// then y[k-2], so one packed load brings both rows of a row pair their
// coordinate (entries 0 and 1 have no second value, and no kernel reads
// it).
func PairMirror(dst []float64, y []Vec3) {
	for c := range dst[:6*len(y)] {
		if k := c / 6; c%2 == 0 {
			dst[c] = y[k][c%6/2]
		} else if k >= 2 {
			dst[c] = y[k-2][c%6/2]
		}
	}
}

// MaxPlusFill computes the value table of a gap-free NWDP round without
// writing its score matrix. With n = len(yp)/6, val holds len(xt)+1 rows
// of n+1 cells, row 0 and column 0 are +0 on entry, and every other cell
// becomes, in row-major order,
//
//	val[i][j] = max(val[i-1][j-1] + s, val[i-1][j], val[i][j-1])
//
// where s is the Term of xt[i-1] against y[j-1], the fixed chain
// interleaved in yp by PairMirror. Every term must be a number (finite
// coordinates, 0 < d02 < +Inf): then every cell is a sum of terms in
// [+0, 1], never −0 or NaN, so the maximum is the same bits in any order.
// Rows go two at a time, the second two columns behind the first, so the
// only loop-carried operation is one MAXPD.
func MaxPlusFill(val []float64, xt []Vec3, yp []float64, d02 float64) {
	n := len(yp) / 6
	if n == 0 {
		return
	}
	cols := n + 1
	val, yp = val[:(len(xt)+1)*cols], yp[:6*n]
	i := 0
	for ; i+1 < len(xt); i += 2 {
		p, q := &xt[i], &xt[i+1]
		maxPlusPair(val[i*cols:(i+3)*cols], yp, p[0], p[1], p[2], q[0], q[1], q[2], d02)
	}
	if i < len(xt) {
		maxPlusRow(val[i*cols:(i+2)*cols], yp, xt[i], d02)
	}
}

// maxPlusRow fills cells 1..n of the second row of val (two rows of n+1
// cells, n = len(yp)/6) from the first: MaxPlusFill for one row, scored
// against p.
func maxPlusRow(val, yp []float64, p Vec3, d02 float64) {
	n := len(yp) / 6
	up, row := val[:n+1], val[n+1:2*n+2]
	left := 0.0
	for j := range n {
		e := yp[6*j : 6*j+6]
		v := up[j] + Term(p[0], p[1], p[2], e[0], e[2], e[4], d02)
		if u := up[j+1]; u > v {
			v = u
		}
		if left > v {
			v = left
		}
		row[j+1] = v
		left = v
	}
}

// maxPlusPairGo is maxPlusPair's portable body: rows 1 and 2 of val
// (three rows of len(yp)/6+1 cells), scored against p and q.
func maxPlusPairGo(val, yp []float64, px, py, pz, qx, qy, qz, d02 float64) {
	cols := len(yp)/6 + 1
	maxPlusRow(val[:2*cols], yp, Vec3{px, py, pz}, d02)
	maxPlusRow(val[cols:3*cols], yp, Vec3{qx, qy, qz}, d02)
}

// scoreRowGo is ScoreRow's portable body; all slices have len(dst).
func scoreRowGo(dst, yx, yy, yz []float64, px, py, pz, d02 float64) {
	yx, yy, yz = yx[:len(dst)], yy[:len(dst)], yz[:len(dst)]
	for j := range dst {
		dst[j] = Term(px, py, pz, yx[j], yy[j], yz[j], d02)
	}
}

// scoreSumGo is ScoreSum's portable body; all slices have len(a).
func scoreSumGo(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64 {
	b, dis2 = b[:len(a)], dis2[:len(a)]
	var sum float64
	for i := range a {
		p, q := &a[i], &b[i]
		di := sqDist(p[0], p[1], p[2], q[0], q[1], q[2])
		dis2[i] = di
		if !mask || di <= cut2 {
			sum += d02 / (d02 + di)
		}
	}
	return sum
}
