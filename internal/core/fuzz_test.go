package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
	"rckalign/internal/sim"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// faultSpecs seeds FuzzFaultPlan and gives FuzzRunShape its fault plans.
var faultSpecs = []string{
	"", "seed=1", "kill=0@10",
	"seed=1;kill=12@40",
	"seed=1;kill=5@10;drop=0>*@p0.01",
	"seed=1;kill=5@10;kill=13@20;kill=27@30;kill=40@40",
	"seed=3;drop=0>*@p0.02;corrupt=*>0@p0.02",
	"seed=1;kill=12@10;kill=30@20",
	"kill=1@0.5;kill=2@0.5;kill=3@0.5;kill=4@0.5;kill=5@0.5;kill=6@0.5",
	"stall=2@0.2+5;kill=2@6", "stall=3@1+0.25;delay=3>0@0.5",
	"corrupt=*>0@every1", "corrupt=0>*@every2;drop=*>0@every3",
	"delay=*>*@100", "kill=3@NaN", "stall=1@0+Inf",
}

// fuzzLengths are the chain lengths of the fuzzers' synthetic workload:
// 28 pairs, the costliest about 0.69 s on a P54C core, 985 residues.
var fuzzLengths = []int{60, 75, 90, 110, 130, 150, 170, 200}

// FuzzFaultPlan drives the -faults grammar end to end: whatever the
// spec, a run either fails to parse, is rejected with the typed plan
// error, or completes with every job accounted for — collected exactly
// once or reported lost — on the shared-queue and the per-worker-queue
// (affinity) farm alike. It never deadlocks and never panics.
func FuzzFaultPlan(f *testing.F) {
	for _, spec := range faultSpecs {
		f.Add(spec)
	}
	pr := SynthPairResults("fuzz", fuzzLengths)
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := fault.ParseSpec(spec)
		if err != nil {
			return
		}
		for _, affinity := range []bool{false, true} {
			seen := map[int]bool{}
			cfg := DefaultConfig()
			cfg.Faults, cfg.Affinity = plan, affinity
			cfg.Collect = func(r rckskel.Result) {
				if seen[r.JobID] {
					t.Errorf("affinity=%t: job %d collected twice", affinity, r.JobID)
				}
				seen[r.JobID] = true
			}
			r, err := Run(pr, 6, cfg)
			var deadlock *sim.DeadlockError
			switch {
			case errors.As(err, &deadlock):
				t.Fatalf("affinity=%t: %v", affinity, err)
			case err != nil:
				if !errors.Is(err, farm.ErrFaultPlan) {
					t.Fatalf("affinity=%t: untyped error %v", affinity, err)
				}
			case r.Collected != len(seen) || r.Collected+r.Faults.LostJobs != len(pr.Pairs):
				t.Fatalf("affinity=%t: collected %d (%d distinct) + lost %d of %d jobs",
					affinity, r.Collected, len(seen), r.Faults.LostJobs, len(pr.Pairs))
			}
		}
	})
}

// FuzzRunShape runs core.Run over every field of Config at once: chips
// 1-5, slaves (a few out of range), gather mode (one invalid) and arity,
// batch, cache capacity (derived, off or k), affinity, threads, order and
// its seed, a memory budget (some below two chains), and no fault plan,
// an empty one or one of faultSpecs. Whatever the shape, the run returns
// a report or one of the typed errors, never ErrInvariant; the Collect
// hook sees each job once; the pairs not collected lie in [LostJobs,
// LostJobs x batch]; and without an injecting plan nothing times out,
// retries or is lost. The seed corpus is 300 shapes drawn from a fixed
// PCG stream.
func FuzzRunShape(f *testing.F) {
	rng := rand.New(rand.NewPCG(55, 1))
	for range 300 {
		slaves := 1 + rng.IntN(8)
		if rng.IntN(10) == 0 {
			slaves = []int{0, 47, 48}[rng.IntN(3)]
		}
		cache := int8(rng.IntN(10) - 1)
		mode := rng.IntN(3) // "", tree or flat
		if rng.IntN(16) == 0 {
			mode = 3 // the invalid "ring"
		}
		f.Add(uint8(rng.IntN(5)), uint8(slaves), uint8(4*rng.IntN(64)+mode), uint8(rng.IntN(7)), cache,
			rng.IntN(2) == 0, uint8(rng.IntN(4)), uint8(rng.IntN(4)), rng.Int64N(100),
			[]uint16{0, 0, 300, 450, 700, 1000, 1400}[rng.IntN(7)], uint8(rng.IntN(len(faultSpecs)+2)))
	}
	pr := SynthPairResults("shape", fuzzLengths)
	f.Fuzz(func(t *testing.T, chips, slaves, gather, batch uint8, cache int8, affinity bool,
		threads, order uint8, orderSeed int64, budget uint16, plan uint8) {
		cfg := DefaultConfig()
		cfg.Chips = 1 + int(chips%5)
		cfg.Gather = farm.GatherConfig{Mode: []string{"", farm.GatherTree, farm.GatherFlat, "ring"}[gather%4], Arity: int(gather/4) % 5}
		cfg.Batch = int(batch % 7)
		cfg.CacheStructs = max(int(cache)%9, -1)
		cfg.Affinity = affinity
		cfg.ThreadsPerWorker = int(threads % 4)
		cfg.Order, cfg.OrderSeed = sched.Order(order%4), orderSeed
		cfg.MemoryBudgetResidues = int(budget % 1500)
		injecting := false
		switch k := int(plan) % (len(faultSpecs) + 2); k {
		case 0:
		case 1:
			cfg.Faults = &fault.Plan{}
		default:
			p, err := fault.ParseSpec(faultSpecs[k-2])
			if err != nil {
				return
			}
			cfg.Faults, injecting = p, !p.Empty()
		}
		seen := map[int]bool{}
		cfg.Collect = func(r rckskel.Result) {
			if seen[r.JobID] {
				t.Errorf("job %d collected twice", r.JobID)
			}
			seen[r.JobID] = true
		}
		shape := fmt.Sprintf("%d chips x %d slaves, gather %+v, batch %d, cache %d, affinity %t, threads %d, order %v/%d, budget %d, plan %d",
			cfg.Chips, slaves, cfg.Gather, cfg.Batch, cfg.CacheStructs, cfg.Affinity, cfg.ThreadsPerWorker, cfg.Order, cfg.OrderSeed, cfg.MemoryBudgetResidues, plan)
		r, err := Run(pr, int(slaves), cfg)
		if err != nil {
			typed := strings.Contains(err.Error(), "exceeds half the memory budget")
			for _, want := range []error{farm.ErrSlaveCount, farm.ErrWorkerGrouping, farm.ErrFaultPlan, farm.ErrGatherSpec} {
				typed = typed || errors.Is(err, want)
			}
			if !typed || errors.Is(err, farm.ErrInvariant) {
				t.Fatalf("%s: %v", shape, err)
			}
			return
		}
		var ft rckskel.FTStats
		if r.Faults != nil {
			ft = r.Faults.FTStats
		}
		lost := len(pr.Pairs) - r.Collected
		if r.Collected != len(seen) || lost < ft.LostJobs || lost > ft.LostJobs*max(cfg.Batch, 1) {
			t.Fatalf("%s: collected %d (%d distinct) of %d pairs, lost %d jobs", shape, r.Collected, len(seen), len(pr.Pairs), ft.LostJobs)
		}
		if !injecting && (ft.Timeouts != 0 || ft.Retries != 0 || lost != 0) {
			t.Fatalf("%s: no injecting plan, yet %d timeouts, %d retries, %d pairs lost", shape, ft.Timeouts, ft.Retries, lost)
		}
	})
}

// FuzzDecodeCache feeds hostile bytes to the pair-cache reader, read as
// each dataset under the default kernel. Seeds: both committed caches,
// truncations of them, and a file of each dataset's last two pairs
// (small, so mutations reach the records) with hostile edits. The
// reader never panics, and what it accepts holds only pairs of the
// all-vs-all whose names and lengths are the dataset's.
func FuzzDecodeCache(f *testing.F) {
	sets := []*synth.Dataset{synth.CK34(), synth.RS119()}
	kernel := tmalign.DefaultOptions().Key()
	for _, ds := range sets {
		path := filepath.Join("..", "..", "testdata", "paircache", ds.Name+".gob")
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(b), len(b) - 1, len(b) / 2, 200, 64, 0} {
			f.Add(b[:n])
		}
		ref, err := LoadPairResults(ds, path)
		if err != nil {
			f.Fatal(err)
		}
		n := len(ref.Results)
		last := make([]*tmalign.Result, n)
		copy(last[n-2:], ref.Results[n-2:])
		small := filepath.Join(f.TempDir(), ds.Name+".gob")
		var cf cacheFile[cachedResult]
		if err = writeCache(ds, kernel, small, last); err == nil {
			b, err = os.ReadFile(small)
		}
		if err == nil {
			err = gob.NewDecoder(bytes.NewReader(b)).Decode(&cf)
		}
		if err != nil {
			f.Fatal(err)
		}
		// As written; a slot past the end; slots out of order; a record
		// in another pair's slot; one slot short.
		for _, edit := range []func(slots []int) []int{
			func(s []int) []int { return s },
			func(s []int) []int { return []int{s[0], n} },
			func(s []int) []int { return []int{s[1], s[0]} },
			func(s []int) []int { return []int{0, s[1]} },
			func(s []int) []int { return s[:1] },
		} {
			c := cf
			c.Slots = edit(slices.Clone(cf.Slots))
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, ds := range sets {
			have, err := decodeCache(bytes.NewReader(b), ds, kernel)
			if err != nil {
				continue
			}
			pairs := sched.AllVsAll(ds.Len())
			if len(have) != len(pairs) {
				t.Fatalf("%s: %d slots, want %d", ds.Name, len(have), len(pairs))
			}
			for k, r := range have {
				a, b := ds.Structures[pairs[k].I], ds.Structures[pairs[k].J]
				if r != nil && (r.Name1 != a.ID || r.Name2 != b.ID || r.Len1 != a.Len() || r.Len2 != b.Len()) {
					t.Fatalf("%s: slot %d holds %s/%d %s/%d, pair %d-%d is %s/%d %s/%d",
						ds.Name, k, r.Name1, r.Len1, r.Name2, r.Len2, pairs[k].I, pairs[k].J, a.ID, a.Len(), b.ID, b.Len())
				}
			}
		}
	})
}
