package dist

import (
	"math"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

var smallPR = func() *core.PairResults {
	ds := synth.Small(8, 77)
	return core.ComputeAllPairsShared(ds, tmalign.FastOptions(), pairstore.New(0))
}()

func TestRunCollectsAll(t *testing.T) {
	r, err := Run(smallPR, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Collected != len(smallPR.Pairs) {
		t.Errorf("collected %d of %d", r.Collected, len(smallPR.Pairs))
	}
	if r.TotalSeconds <= 0 || r.DiskBusySeconds <= 0 {
		t.Errorf("timings: %+v", r)
	}
}

func TestDistributedSlowerThanRckAlign(t *testing.T) {
	// Experiment I's claim: the on-chip master (rckAlign) beats the
	// MCPC-driven distributed version at every core count.
	for _, n := range []int{1, 4, 7} {
		d, err := Run(smallPR, n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Run(smallPR, n, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if d.TotalSeconds <= r.TotalSeconds {
			t.Errorf("slaves=%d: distributed (%v) not slower than rckAlign (%v)", n, d.TotalSeconds, r.TotalSeconds)
		}
	}
}

func TestSpawnOverheadDominatesAtOneSlave(t *testing.T) {
	r1, err := Run(smallPR, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial := smallPR.SerialSeconds(costmodel.P54C())
	perJob := spawnSeconds + 2*nfsSeekSeconds
	expectedMin := serial + float64(len(smallPR.Pairs))*perJob*0.9
	if r1.TotalSeconds < expectedMin {
		t.Errorf("1-slave distributed %v below compute+overhead floor %v", r1.TotalSeconds, expectedMin)
	}
}

func TestScalesWithSlavesButSublinearly(t *testing.T) {
	r1, err := Run(smallPR, 1)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := Run(smallPR, 7)
	if err != nil {
		t.Fatal(err)
	}
	sp := r1.TotalSeconds / r7.TotalSeconds
	if sp < 2 {
		t.Errorf("7-slave distributed speedup %v too low", sp)
	}
	if sp > 7 {
		t.Errorf("7-slave distributed speedup %v impossible", sp)
	}
}

// TestNFSContentionVisible: the single MCPC disk serialises every read,
// so its busy time is exactly the sum over every job's two reads of
// seek + file bytes / bandwidth, however many slaves wait on it.
func TestNFSContentionVisible(t *testing.T) {
	var want float64
	for _, p := range smallPR.Pairs {
		for _, idx := range []int{p.I, p.J} {
			want += nfsSeekSeconds + float64(core.FileBytes(smallPR.Dataset.Structures[idx].Len()))/nfsBytesPerSecond
		}
	}
	for _, n := range []int{1, 7} {
		r, err := Run(smallPR, n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.DiskBusySeconds-want) > 1e-9*want {
			t.Errorf("slaves=%d: disk busy %v, want %v (every read serialised)", n, r.DiskBusySeconds, want)
		}
	}
}

func TestRunValidatesSlaves(t *testing.T) {
	if _, err := Run(smallPR, 0); err == nil {
		t.Error("0 slaves accepted")
	}
	if _, err := Run(smallPR, 49); err == nil {
		t.Error("49 slaves accepted")
	}
}

func TestRunSweepMonotone(t *testing.T) {
	rs, err := RunSweep(smallPR, []int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].TotalSeconds >= rs[i-1].TotalSeconds {
			t.Errorf("sweep not monotone: %v", rs)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(smallPR, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallPR, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSeconds != b.TotalSeconds {
		t.Error("distributed simulation not deterministic")
	}
}
