package prune

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"rckalign/internal/synth"
)

// checkLanes requires every lane of one groupScores call to equal
// affineScore of its own pair.
func checkLanes(t *testing.T, f *Filter, s1 string, s2 []string) {
	t.Helper()
	got := make([]int32, len(s2))
	f.groupScores(s1, s2, got)
	for k, s := range s2 {
		if want := f.affine(s1, s); got[k] != want {
			t.Fatalf("lane %d of %d, %d x %d residues: %d tenths, affineScore %d", k, len(s2), len(s1), len(s), got[k], want)
		}
	}
}

// FuzzAffineLanes holds each lane of the eight-pair kernel to
// affineScore: a query against up to eight targets cut from the second
// input at '|' (so empty targets, length 1 and unequal lengths come up),
// any bytes, and with long set the query repeated past laneMaxLen, where
// the group must take the pair-by-pair path. The seeds include
// all-match and all-mismatch groups and, on either side of the guard, an
// all-match pair whose score only fits int16 below it.
func FuzzAffineLanes(f *testing.F) {
	f.Add([]byte(""), []byte(""), false)
	f.Add([]byte("A"), []byte("A|"), false)
	f.Add([]byte(""), []byte("ACD|E|FGHIK"), false)
	f.Add([]byte("ACDEFGHIK"), []byte("ACDEFGHIK|ACDEFGHIK|ACDEFGHIK|ACDEFGHIK|ACDEFGHIK|ACDEFGHIK|ACDEFGHIK|ACDEFGHIK"), false)
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAA"), []byte("GGGG|GGGGGGGGGGGGGGGGGGGGGGGGGGGGGG|G|GG"), false)
	f.Add([]byte{0x80, 0xff, 'A', 0x00, 0xfe}, []byte{0xff, 'A', '|', 0x80, 0x00, 0x7f, '|', '|', 0xfe}, false)
	f.Add([]byte(strings.Repeat("HEAG", 40)), []byte(strings.Repeat("HAEGL", 25)+"|"+strings.Repeat("GAEH", 30)+"|HEAG"), false)
	f.Add([]byte("AA"), []byte(strings.Repeat("A", laneMaxLen)+"|A"), true)  // 32760 tenths in a lane
	f.Add([]byte("A"), []byte(strings.Repeat("A", laneMaxLen+1)+"|G"), true) // 32770: past int16
	flt := New(0)
	f.Fuzz(func(t *testing.T, q, ts []byte, long bool) {
		if len(q) > fuzzSeqLimit || len(ts) > laneMaxLen+lanes*fuzzSeqLimit {
			t.Skip()
		}
		s1 := string(q)
		if long {
			s1 = strings.Repeat(s1+"A", laneMaxLen/(len(s1)+1)+1)[:laneMaxLen+len(q)%2]
		}
		var s2 []string
		for _, s := range bytes.SplitN(ts, []byte("|"), lanes) {
			s2 = append(s2, string(s))
		}
		checkLanes(t, flt, s1, s2)
	})
}

// TestAffineLanesOnDatasets runs RS119's first query against every other
// chain, eight at a time in length order as SkipAll groups them.
func TestAffineLanesOnDatasets(t *testing.T) {
	rs := synth.RS119()
	f := New(0)
	q := rs.Structures[0].Sequence()
	var s2 []string
	for _, st := range rs.Structures[1:] {
		if s2 = append(s2, st.Sequence()); len(s2) == lanes {
			checkLanes(t, f, q, s2)
			s2 = s2[:0]
		}
	}
	checkLanes(t, f, q, s2)
}

// TestLaneGroupWarmNoAllocs: a filter that has run its longest group
// owns all the lane scratch; SkipAll allocates nothing per query, group
// or pair.
func TestLaneGroupWarmNoAllocs(t *testing.T) {
	rs := synth.RS119()
	feats := make([]Features, rs.Len())
	for i, s := range rs.Structures {
		feats[i] = Extract(s.CAs(), s.Sequence())
	}
	f := New(0.5)
	skip := make([]bool, len(feats))
	f.SkipAll(&feats[0], feats[1:], skip)
	if allocs := testing.AllocsPerRun(5, func() { f.SkipAll(&feats[0], feats[1:], skip) }); allocs != 0 {
		t.Errorf("warm SkipAll over %d pairs: %.1f allocs/run, want 0", len(feats)-1, allocs)
	}
}

// BenchmarkAffine times RS119's first query against the next 64 chains
// as Bound runs them, one pair at a time (/scalar), and as SkipAll does,
// eight lanes at a time in length order (/lanes), in ns per DP cell of
// the pairs themselves (padding is the lanes' cost).
func BenchmarkAffine(b *testing.B) {
	rs := synth.RS119()
	q := rs.Structures[0].Sequence()
	var s2 []string
	cells := 0
	for _, st := range rs.Structures[1:65] {
		s2 = append(s2, st.Sequence())
		cells += len(q) * len(st.Sequence())
	}
	slices.SortFunc(s2, func(a, b string) int { return len(a) - len(b) })
	f := New(0)
	var scores [lanes]int32
	for _, body := range []struct {
		name string
		run  func()
	}{
		{"scalar", func() {
			for _, s := range s2 {
				f.affine(q, s)
			}
		}},
		{"lanes", func() {
			for lo := 0; lo < len(s2); lo += lanes {
				f.groupScores(q, s2[lo:lo+lanes], scores[:])
			}
		}},
	} {
		b.Run(body.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}
