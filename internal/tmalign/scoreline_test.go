package tmalign

import (
	"fmt"
	"math"
	"testing"
)

// sprintfScoreLine is the -scores-out line as fmt formats it, the oracle
// AppendScoreLine must match bit for bit.
func sprintfScoreLine(i, j int, r *Result) string {
	return fmt.Sprintf("%d %d %.17g %.17g %.17g %d %.17g\n",
		i, j, r.TM1, r.TM2, r.RMSD, r.AlignedLen, r.SeqID)
}

// scoreLineCases are the edge values both the table test and the fuzz
// seed corpus run: every float class fmt and strconv might spell
// differently, and ints at both ends of the range.
var scoreLineCases = []struct {
	i, j, alen        int
	tm1, tm2, rmsd, s float64
}{
	{0, 1, 57, 0.51234567890123456, 0.4987654321, 2.3456, 0.25},
	{12, 33, 0, 0, math.Copysign(0, -1), 0, 0},
	{-1, -2, -3, math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()},
	{math.MaxInt, math.MinInt, math.MaxInt32, 1e300, -1e300, 1e-300, -1e-300},
	{7, 8, 9, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 0x1p-1040},
	{1 << 30, 3, 1, math.MaxFloat64, -math.MaxFloat64, 1, 1.0 / 3},
	{99, 100, 1000, 1e21, 1e-7, 123456789012345678, 0.1},
}

func TestAppendScoreLineMatchesSprintf(t *testing.T) {
	buf := []byte("prefix:")
	for _, c := range scoreLineCases {
		r := &Result{TM1: c.tm1, TM2: c.tm2, RMSD: c.rmsd, AlignedLen: c.alen, SeqID: c.s}
		want := sprintfScoreLine(c.i, c.j, r)
		if got := string(AppendScoreLine(nil, c.i, c.j, r)); got != want {
			t.Errorf("AppendScoreLine = %q, want %q", got, want)
		}
		// Appending keeps what dst already held.
		if got := string(AppendScoreLine(buf[:7], c.i, c.j, r)); got != "prefix:"+want {
			t.Errorf("AppendScoreLine after prefix = %q, want %q", got, "prefix:"+want)
		}
	}
}

func TestAppendScoreLineAllocatesNothingWithRoom(t *testing.T) {
	r := &Result{TM1: 0.51234567890123456, TM2: math.Inf(-1), RMSD: math.NaN(), AlignedLen: 57, SeqID: -1e-300}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = AppendScoreLine(buf[:0], 12, 33, r) }); n != 0 {
		t.Errorf("AppendScoreLine allocates %v objects into a buffer with room, want 0", n)
	}
}

func FuzzScoreLine(f *testing.F) {
	for _, c := range scoreLineCases {
		f.Add(c.i, c.j, c.tm1, c.tm2, c.rmsd, c.alen, c.s)
	}
	f.Fuzz(func(t *testing.T, i, j int, tm1, tm2, rmsd float64, alen int, s float64) {
		r := &Result{TM1: tm1, TM2: tm2, RMSD: rmsd, AlignedLen: alen, SeqID: s}
		if got, want := string(AppendScoreLine(nil, i, j, r)), sprintfScoreLine(i, j, r); got != want {
			t.Fatalf("AppendScoreLine = %q, want %q", got, want)
		}
	})
}
