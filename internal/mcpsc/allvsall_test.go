package mcpsc

import (
	"reflect"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

func TestEqualPartition(t *testing.T) {
	p := EqualPartition(3, 10)
	if p[0] != 4 || p[1] != 3 || p[2] != 3 {
		t.Errorf("partition = %v", p)
	}
	total := 0
	for _, n := range p {
		total += n
	}
	if total != 10 {
		t.Error("partition loses slaves")
	}
}

func TestProportionalPartitionFavorsExpensiveMethod(t *testing.T) {
	ds := synth.Small(6, 71)
	methods := []Method{
		TMAlign{Opt: tmalign.FastOptions()}, // by far the most expensive
		GaplessRMSD{},
	}
	p := ProportionalPartition(ds, methods, 10, costmodel.P54C())
	if p[0]+p[1] != 10 {
		t.Fatalf("partition = %v", p)
	}
	if p[0] <= p[1] {
		t.Errorf("TM-align should get more slaves: %v", p)
	}
	if p[1] < 1 {
		t.Errorf("every method needs at least one slave: %v", p)
	}
}

func TestRunAllVsAll(t *testing.T) {
	ds := synth.Small(6, 72)
	methods := []Method{GaplessRMSD{}, ContactOverlap{}}
	r, err := RunAllVsAll(ds, methods, []int{3, 3}, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSeconds <= 0 {
		t.Error("no simulated time")
	}
	for _, m := range methods {
		mat := r.Similarity[m.Name()]
		if len(mat) != 6 {
			t.Fatalf("%s matrix size %d", m.Name(), len(mat))
		}
		for i := 0; i < 6; i++ {
			if mat[i][i] != 1 {
				t.Errorf("%s diagonal", m.Name())
			}
			for j := i + 1; j < 6; j++ {
				if mat[i][j] != mat[j][i] {
					t.Errorf("%s not symmetric at (%d,%d)", m.Name(), i, j)
				}
				if mat[i][j] < 0 || mat[i][j] > 1.000001 {
					t.Errorf("%s score out of range: %v", m.Name(), mat[i][j])
				}
			}
		}
		if r.BusySecondsPerMethod[m.Name()] <= 0 {
			t.Errorf("%s recorded no busy time", m.Name())
		}
		// Family structure must be visible to every method: fa pairs
		// (0,1,2) out-score cross-family pairs.
		if mat[0][1] <= mat[0][3] || mat[1][2] <= mat[2][4] {
			t.Errorf("%s does not separate families: %v", m.Name(), mat)
		}
	}

	// The memoized pair store moves host time only: the same run through
	// a store, cold and then warm, reports and scores identically.
	cfg := DefaultRunConfig()
	cfg.Store = pairstore.New(2)
	for _, pass := range []string{"cold", "warm"} {
		rs, err := RunAllVsAll(ds, methods, []int{3, 3}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs.Report, r.Report) || !reflect.DeepEqual(rs.Similarity, r.Similarity) {
			t.Errorf("%s store changed the run:\n with %+v\n without %+v", pass, rs.Report, r.Report)
		}
	}
	if st := cfg.Store.Stats(); st.Misses != int64(len(methods)*15) || st.Hits == 0 {
		t.Errorf("store stats %+v, want one miss per (method, pair) and the warm pass all hits", st)
	}
}

func TestRunAllVsAllValidation(t *testing.T) {
	ds := synth.Small(4, 73)
	methods := []Method{GaplessRMSD{}}
	if _, err := RunAllVsAll(ds, nil, nil, DefaultRunConfig()); err == nil {
		t.Error("no methods accepted")
	}
	if _, err := RunAllVsAll(ds, methods, []int{1, 1}, DefaultRunConfig()); err == nil {
		t.Error("partition/method mismatch accepted")
	}
	if _, err := RunAllVsAll(ds, methods, []int{0}, DefaultRunConfig()); err == nil {
		t.Error("zero-slave partition accepted")
	}
	if _, err := RunAllVsAll(ds, methods, []int{99}, DefaultRunConfig()); err == nil {
		t.Error("oversized partition accepted")
	}
}

func TestProportionalBeatsEqualOnSkewedMethods(t *testing.T) {
	// TM-align costs orders of magnitude more than contact overlap;
	// giving the methods equal cores starves TM-align. The proportional
	// partition should finish sooner.
	ds := synth.Small(6, 74)
	methods := []Method{TMAlign{Opt: tmalign.FastOptions()}, ContactOverlap{}}
	equal, err := RunAllVsAll(ds, methods, EqualPartition(2, 8), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	prop, err := RunAllVsAll(ds, methods, ProportionalPartition(ds, methods, 8, costmodel.P54C()), DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if prop.TotalSeconds >= equal.TotalSeconds {
		t.Errorf("proportional (%v) should beat equal (%v) on skewed methods",
			prop.TotalSeconds, equal.TotalSeconds)
	}
}
