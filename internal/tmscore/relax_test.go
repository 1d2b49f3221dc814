package tmscore

import (
	"math"
	"slices"
	"testing"

	"rckalign/internal/geom"
)

// relaxRounds caps the literal loops below. Past it a test does not wait
// for them: it only checks that the closed form ran more rounds, or kept
// the first round because three pairs can never pass.
const relaxRounds = 1 << 22

// loopSum is get_score_fast's relaxation as TM-align writes it: gather
// every pair with dis2 <= cutoff, and while fewer than three out of more
// than three qualify, add 0.5 to the cutoff and gather again.
func loopSum(dis2 []float64, cut2 float64) (cutoff float64, set []int, rounds int, ok bool) {
	n := len(dis2)
	for cutoff = cut2; rounds < relaxRounds; cutoff += 0.5 {
		rounds++
		set = set[:0]
		for k := 0; k < n; k++ {
			if dis2[k] <= cutoff {
				set = append(set, k)
			}
		}
		if len(set) >= 3 || n <= 3 {
			return cutoff, set, rounds, true
		}
	}
	return 0, nil, rounds, false
}

// loopSquare is score_fun8's relaxation as TM-align writes it: collect
// every pair with dis2 < (d + inc*0.5)², recomputed each round.
func loopSquare(dis2 []float64, d float64) (dTmp float64, set []int, rounds int, ok bool) {
	n := len(dis2)
	dTmp = d * d
	for inc := 0; rounds < relaxRounds; inc++ {
		rounds++
		set = set[:0]
		for i, di := range dis2 {
			if di < dTmp {
				set = append(set, i)
			}
		}
		if len(set) < 3 && n > 3 {
			dinc := d + float64(inc+1)*0.5
			dTmp = dinc * dinc
			continue
		}
		return dTmp, set, rounds, true
	}
	return 0, nil, rounds, false
}

// passing lists the entries of dis2 within cutoff: dis2[i] < cutoff when
// strict, dis2[i] <= cutoff otherwise.
func passing(dis2 []float64, cutoff float64, strict bool) []int {
	var set []int
	for i, v := range dis2 {
		if v < cutoff || !strict && v == cutoff {
			set = append(set, i)
		}
	}
	return set
}

// checkRelax requires RelaxSum (square false) or relaxSquare (square
// true) to stop where the literal loop stops: the same cutoff bits, the
// same gathered set and the same number of rounds. Where the loop runs
// past relaxRounds, the closed form must have run longer too, or have
// kept the first round with fewer than three pairs passing.
func checkRelax(t *testing.T, name string, dis2 []float64, first float64, square bool) {
	t.Helper()
	closed, loop := RelaxSum, loopSum
	if square { // scoreFun8's first round is geom.ScorePass's count at d*d
		closed = func(dis2 []float64, d float64, take func(float64) int) (int, int) {
			return relaxSquare(dis2, d, take(d*d), take)
		}
		loop = loopSquare
	}
	var cutoff float64
	var set []int
	nCut, rounds := closed(dis2, first, func(c float64) int {
		cutoff, set = c, passing(dis2, c, square)
		return len(set)
	})
	if nCut != len(set) {
		t.Fatalf("%s: relaxation returns %d pairs, its last gather took %d", name, nCut, len(set))
	}
	wantCut, wantSet, wantRounds, ok := loop(dis2, first)
	if !ok {
		if rounds <= relaxRounds && !(rounds == 1 && len(set) < 3) {
			t.Errorf("%s (square %t, first %v, dis2 %v): loop runs past %d rounds, closed form stops at round %d, cutoff %v",
				name, square, first, dis2, relaxRounds, rounds, cutoff)
		}
		return
	}
	if math.Float64bits(cutoff) != math.Float64bits(wantCut) || rounds != wantRounds || !slices.Equal(set, wantSet) {
		t.Errorf("%s (square %t, first %v, dis2 %v): closed form cutoff %v (%x) after %d rounds gathers %v; loop %v (%x) after %d gathers %v",
			name, square, first, dis2, cutoff, math.Float64bits(cutoff), rounds, set, wantCut, math.Float64bits(wantCut), wantRounds, wantSet)
	}
}

// sumCutoff returns refit's cutoff of round k from cut2, accumulated.
func sumCutoff(cut2 float64, k int) float64 {
	for ; k > 0; k-- {
		cut2 += 0.5
	}
	return cut2
}

// TestRelaxedCutoffMatchesLoop pins both relaxations to their literal
// loops on the cases where a closed form could slip: ties at the third
// distance, a distance exactly on a cutoff, the third distance across
// the binade edges at 64, 128 and 2^20 (where refit's accumulated adds
// round, up or down), NaN and +Inf entries, n <= 3, and every pair
// already inside.
func TestRelaxedCutoffMatchesLoop(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	d := 4.75 + 0x1p-45
	sq := func(r float64) float64 { x := d + r*0.5; return x * x }
	type relaxCase struct {
		name  string
		dis2  []float64
		first float64
	}
	cases := []relaxCase{
		{"all inside", []float64{1, 2, 3, 4, 5}, 20.25},
		{"first round passes", []float64{400, 1, 300, 2, 3}, 20.25},
		{"ties at the third", []float64{5, 100, 100, 100, 200}, 20.25},
		{"ties at the first", []float64{100, 100, 100, 100, 200}, 20.25},
		{"on a cutoff", []float64{1, 500, 30.25, 30.25 + 0x1p-40, 900}, 20.25},
		{"on a recomputed cutoff", []float64{1, sq(9), 2, 900, 1e4}, d},
		{"just past a recomputed cutoff", []float64{1, math.Nextafter(sq(9), inf), 2, 900, 1e4}, d},
		{"NaN entries", []float64{nan, 400, nan, 3, 900, nan, 2}, 20.25},
		{"NaN and Inf entries", []float64{nan, inf, 3, 5000, inf, 2}, 20.25},
		{"fewer than three numbers", []float64{nan, 3, nan, nan, 2}, 20.25},
		{"third is +Inf", []float64{inf, 1, inf, 2, inf}, 20.25},
		{"third beyond the stall at 2^52", []float64{1, 2, 0x1p60, 0x1p61, 0x1p62}, 20.25},
		{"n = 0", nil, 20.25},
		{"n = 1", []float64{900}, 20.25},
		{"n = 2", []float64{900, 1e4}, 20.25},
		{"n = 3 outside", []float64{900, 1e4, 5e4}, 20.25},
		{"n = 3 inside", []float64{1, 2, 3}, 20.25},
		{"n = 4", []float64{900, 1e4, 5e4, 7}, 20.25},
		{"zero cutoff", []float64{9, 8, 7, 6}, 0},
		{"subnormal cutoff", []float64{9, 8, 7, 6}, 5e-324},
		{"negative d", []float64{9, 8, 70, 6}, -3.75},
		{"far apart", []float64{4.8e8, 1.1e9, 7.7e8, 9.9e8, 3.2e8, 6e8}, 20.25},
	}
	// A first cutoff in [e/2, e) whose lowest bit is set makes the add that
	// crosses e a tie; with ulps 1 and 3 it rounds one way and the other.
	// The third distance sits on the cutoffs just before and after the
	// crossing, and one float past them.
	for _, e := range []float64{64, 128, 0x1p20} {
		u := math.Nextafter(e/2, e) - e/2
		for _, off := range []float64{u, 3 * u} {
			first := e/2 + 0.25 + off
			k := int((e - first) * 2) // the round whose cutoff crosses e
			for _, r := range []int{k - 1, k, k + 1} {
				c := sumCutoff(first, r)
				for _, v := range []float64{c, math.Nextafter(c, inf)} {
					cases = append(cases, relaxCase{"across a binade edge", []float64{1e9, 0, v, 2e9, 3, v + 7}, first})
				}
			}
		}
	}
	for _, tc := range cases {
		checkRelax(t, tc.name, tc.dis2, tc.first, false)
		checkRelax(t, tc.name, tc.dis2, tc.first, true)
	}
}

// relaxValue turns a fuzz byte into a squared distance: NaN, +Inf, 0, a
// cutoff of either sequence from first (or the float after it), a value
// beside one of the binade edges 32, 64, 128, 2^20, or an ordinary one.
func relaxValue(b byte, first float64) float64 {
	edges := [4]float64{32, 64, 128, 0x1p20}
	switch k := int(b); {
	case k < 8:
		return [8]float64{math.NaN(), math.Inf(1), 0, math.NaN(), 1, 2, 3, 0.5}[k]
	case k < 72:
		c := first
		for i := 0; i < (k-8)%32; i++ {
			c += 0.5
		}
		if k >= 40 {
			x := first + float64((k-8)%32)*0.5
			c = x * x
		}
		if b&1 == 1 {
			c = math.Nextafter(c, math.Inf(1))
		}
		return c
	case k < 104:
		e := edges[k%4]
		return e + float64((k-72)/4-4)*0x1p-40*e
	default:
		return float64(k-104) * 7.5
	}
}

// FuzzRelaxedCutoff drives both relaxations with fuzz-chosen distances
// and first cutoffs against their literal loops (checkRelax).
func FuzzRelaxedCutoff(f *testing.F) {
	f.Add([]byte{200, 210, 220, 230, 240}, 20.25)
	f.Add([]byte{10, 11, 12, 13, 9}, 20.25+0x1p-40)
	f.Add([]byte{0, 0, 255, 3, 200}, 4.75)
	f.Add([]byte{0, 1, 0, 2}, 30.0)
	f.Add([]byte{73, 77, 81, 250, 251}, 20.25+0x1p-40)
	f.Add([]byte{103, 99, 95, 91, 255}, 63.75)
	f.Add([]byte{44, 45, 46, 47}, 6.5)
	f.Add([]byte{5}, 20.25)
	f.Fuzz(func(t *testing.T, data []byte, first float64) {
		if len(data) > 40 {
			data = data[:40]
		}
		if !(math.Abs(first) <= 0x1p20) {
			first = 20.25
		}
		dis2 := make([]float64, len(data))
		for i, b := range data {
			dis2[i] = relaxValue(b, math.Abs(first))
		}
		checkRelax(t, "fuzz", dis2, math.Abs(first), false)
		checkRelax(t, "fuzz", dis2, first, true)
	})
}

// TestScoreFun8KeepsFirstRoundWhenUnreachable: with fewer than three
// distances that are numbers, no cutoff lets three pairs through and the
// reference loop never ends. scoreFun8 keeps its first round: it
// collects what passes d², charges one round, and returns.
func TestScoreFun8KeepsFirstRoundWhenUnreachable(t *testing.T) {
	nan := math.NaN()
	xt := []geom.Vec3{{nan, 0, 0}, {0, 0, 0}, {nan, 0, 0}, {1, 0, 0}, {0, nan, 0}}
	x, y := geom.ColsOf(make([]float64, 15), 5, xt), geom.ColsOf(make([]float64, 15), 5, make([]geom.Vec3, 5))
	set, dis2, id := make([]int32, 1), make([]float64, len(xt)), geom.IdentityTransform()
	_, nCut, evals := SearchParams(40, 40).scoreFun8(set, dis2, &id, x, y, 1)
	if nCut != 1 || set[0] != 1<<1 || evals != len(xt) {
		t.Errorf("collected %d pairs (set %b), charged %d evaluations; want pair 1 alone and %d", nCut, set[0], evals, len(xt))
	}
}
