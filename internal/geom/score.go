package geom

// The TM-score term 1/(1+d²/d0²) is the inner loop of every TM-align
// score matrix and every rotation-search scoring pass. ScoreRow and
// ScoreSum are its two shapes. On amd64 their bodies are SSE2 assembly
// that evaluates two terms per packed SUBPD/MULPD/ADDPD/DIVPD in exactly
// the scalar operation order, so every result is bit-identical to the Go
// bodies below, which every other GOARCH runs and the tests compare
// against (DESIGN.md §16, "packed TM terms").

// ScoreRow sets dst[j] = 1/(1+d/d02) for every j of dst, where d is the
// squared distance from p to (yx[j], yy[j], yz[j]): one row of a TM score
// matrix against a chain mirrored as structure-of-arrays. yx, yy and yz
// must be at least as long as dst.
func ScoreRow(dst, yx, yy, yz []float64, p Vec3, d02 float64) {
	n := len(dst)
	scoreRow(dst, yx[:n], yy[:n], yz[:n], p[0], p[1], p[2], d02)
}

// ScoreSum sets dis2[i] = |a[i]-b[i]|² for every i of a and returns the
// sum of 1/(1+dis2[i]/d02), added in index order; with mask, only the
// pairs with dis2[i] <= cut2 are added. b and dis2 must be at least as
// long as a.
func ScoreSum(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64 {
	n := len(a)
	return scoreSum(dis2[:n], a, b[:n], d02, cut2, mask)
}

// scoreRowGo is ScoreRow's portable body; all slices have len(dst).
func scoreRowGo(dst, yx, yy, yz []float64, px, py, pz, d02 float64) {
	yx, yy, yz = yx[:len(dst)], yy[:len(dst)], yz[:len(dst)]
	for j := range dst {
		dx, dy, dz := px-yx[j], py-yy[j], pz-yz[j]
		di := dx*dx + dy*dy + dz*dz
		dst[j] = 1 / (1 + di/d02)
	}
}

// scoreSumGo is ScoreSum's portable body; all slices have len(a).
func scoreSumGo(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64 {
	b, dis2 = b[:len(a)], dis2[:len(a)]
	var sum float64
	for i := range a {
		p, q := &a[i], &b[i]
		dx, dy, dz := p[0]-q[0], p[1]-q[1], p[2]-q[2]
		di := dx*dx + dy*dy + dz*dz
		dis2[i] = di
		if !mask || di <= cut2 {
			sum += 1 / (1 + di/d02)
		}
	}
	return sum
}
