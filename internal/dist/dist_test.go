package dist

import (
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
	r, err := Run(smallPR, 3, DefaultConfig())
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
		d, err := Run(smallPR, n, DefaultConfig())
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
	cfg := DefaultConfig()
	r1, err := Run(smallPR, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := smallPR.SerialSeconds(costmodel.P54C())
	perJob := cfg.SpawnSeconds + 2*cfg.NFSSeekSeconds
	expectedMin := serial + float64(len(smallPR.Pairs))*perJob*0.9
	if r1.TotalSeconds < expectedMin {
		t.Errorf("1-slave distributed %v below compute+overhead floor %v", r1.TotalSeconds, expectedMin)
	}
}

func TestScalesWithSlavesButSublinearly(t *testing.T) {
	cfg := DefaultConfig()
	r1, err := Run(smallPR, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := Run(smallPR, 7, cfg)
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

func TestNFSContentionVisible(t *testing.T) {
	// Crank up NFS service time: with many slaves the single disk must
	// throttle scaling.
	cfg := DefaultConfig()
	cfg.NFSSeekSeconds = 3.0 // absurd disk: contention dominates
	r1, err := Run(smallPR, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := Run(smallPR, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := r1.TotalSeconds / r7.TotalSeconds
	if sp > 4 {
		t.Errorf("speedup %v too high: NFS bottleneck not modelled", sp)
	}
	// Disk busy time must be close to jobs * 2 reads * service.
	wantDisk := float64(len(smallPR.Pairs)) * 2 * cfg.NFSSeekSeconds
	if r7.DiskBusySeconds < wantDisk {
		t.Errorf("disk busy %v < %v", r7.DiskBusySeconds, wantDisk)
	}
}

func TestRunValidatesSlaves(t *testing.T) {
	if _, err := Run(smallPR, 0, DefaultConfig()); err == nil {
		t.Error("0 slaves accepted")
	}
	if _, err := Run(smallPR, 49, DefaultConfig()); err == nil {
		t.Error("49 slaves accepted")
	}
}

func TestRunSweepMonotone(t *testing.T) {
	rs, err := RunSweep(smallPR, []int{1, 3, 5}, DefaultConfig())
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
	a, err := Run(smallPR, 5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallPR, 5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSeconds != b.TotalSeconds {
		t.Error("distributed simulation not deterministic")
	}
}
