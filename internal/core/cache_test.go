package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

func TestCacheRoundTrip(t *testing.T) {
	pr := smallPR // fast-profile results
	dir := t.TempDir()
	fast := tmalign.FastOptions()
	if err := writeCache(pr.Dataset, fast.Key(), cachePath(dir, pr.Dataset.Name, fast.Key()), pr.Results); err != nil {
		t.Fatal(err)
	}
	got, err := ComputeCached(pr.Dataset, fast, pr.Pairs, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range pr.Results {
		a, b := pr.Results[k], got.Results[k]
		if a.TM1 != b.TM1 || a.TM2 != b.TM2 || a.RMSD != b.RMSD || a.Ops != b.Ops {
			t.Fatalf("cache round trip mismatch at %d", k)
		}
		if b.Invmap != nil {
			t.Fatalf("pair %d was recomputed instead of loaded (the cache omits Invmap)", k)
		}
	}
	// Replay must produce identical simulated timings.
	r1, err := Run(pr, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(got, 3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalSeconds != r2.TotalSeconds {
		t.Errorf("cached replay differs: %v vs %v", r1.TotalSeconds, r2.TotalSeconds)
	}
}

func TestCacheRejectsWrongDataset(t *testing.T) {
	pr := smallPR
	path := filepath.Join(t.TempDir(), "cache.gob")
	kernel := tmalign.FastOptions().Key()
	if err := writeCache(pr.Dataset, kernel, path, pr.Results); err != nil {
		t.Fatal(err)
	}
	if _, err := readCache(pr.Dataset, kernel, path); err != nil {
		t.Fatal(err)
	}
	if _, err := readCache(synth.Small(8, 123), kernel, path); err == nil { // same size, different structures
		t.Error("cache accepted for a different dataset")
	}
	if _, err := readCache(synth.CK34(), kernel, path); err == nil {
		t.Error("cache accepted for a different-size dataset")
	}
	if _, err := LoadPairResults(pr.Dataset, path); err == nil {
		t.Error("fast-kernel cache accepted as default-kernel results")
	}
}

// TestComputeOrLoad: a fast and a default run share a cache dir
// but not a file; each reloads its own, and the default one keeps the
// name <dataset>.gob.
func TestComputeOrLoad(t *testing.T) {
	ds := synth.Small(4, 5)
	dir := t.TempDir()
	pairs := sched.AllVsAll(ds.Len())
	run := func(opt tmalign.Options, store *pairstore.Store) *PairResults {
		t.Helper()
		pr, err := ComputeCached(ds, opt, pairs, dir, store)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	fast := run(tmalign.FastOptions(), pairstore.New(0))
	if want := ComputeAllPairsShared(ds, tmalign.FastOptions(), nil); !reflect.DeepEqual(fast, want) {
		t.Error("fast results differ from ComputeAllPairsShared(FastOptions)")
	}
	def := run(tmalign.DefaultOptions(), pairstore.New(0))
	ents, err := os.ReadDir(dir)
	if _, serr := os.Stat(filepath.Join(dir, ds.Name+".gob")); err != nil || serr != nil || len(ents) != 2 {
		t.Fatalf("cache dir holds %v (err %v), want a fast-kernel file and %s.gob", ents, err, ds.Name)
	}
	for _, c := range []struct {
		opt  tmalign.Options
		want *PairResults
	}{{tmalign.FastOptions(), fast}, {tmalign.DefaultOptions(), def}} {
		store := pairstore.New(0)
		got := run(c.opt, store)
		if m := store.StatsSnapshot().Misses; m != 0 {
			t.Errorf("%s: reload computed %d pairs", c.opt.Key(), m)
		}
		for k, r := range got.Results {
			if r.TM1 != c.want.Results[k].TM1 || r.Ops != c.want.Results[k].Ops {
				t.Fatalf("%s: reloaded pair %d differs from the computed one", c.opt.Key(), k)
			}
		}
	}
}

// TestComputeCachedResumes: a cache file holding the first k CK34 pairs
// (a run killed after a checkpoint) makes the next run compute exactly
// the 561 - k others, with the golden scores, and leave the committed
// file's bytes behind; a complete file computes nothing.
func TestComputeCachedResumes(t *testing.T) {
	ck := synth.CK34()
	committed := filepath.Join("..", "..", "testdata", "paircache", "CK34.gob")
	ref, err := LoadPairResults(ck, committed)
	if err != nil {
		t.Fatal(err)
	}
	const k = 555
	dir := t.TempDir()
	path := filepath.Join(dir, "CK34.gob")
	partial := append(ref.Results[:k:k], make([]*tmalign.Result, len(ref.Results)-k)...)
	if err := writeCache(ck, tmalign.DefaultOptions().Key(), path, partial); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPairResults(ck, path); err == nil {
		t.Error("LoadPairResults accepted a partial file")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_scores_ck34.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{561 - k, 0} {
		store := pairstore.New(0)
		pr, err := ComputeCached(ck, tmalign.DefaultOptions(), sched.AllVsAll(ck.Len()), dir, store)
		if err != nil {
			t.Fatal(err)
		}
		if m := store.StatsSnapshot().Misses; m != want {
			t.Errorf("computed %d pairs, want %d", m, want)
		}
		var scores []byte
		for i, p := range pr.Pairs {
			scores = tmalign.AppendScoreLine(scores, p.I, p.J, pr.Results[i])
		}
		if !bytes.Equal(scores, golden) {
			t.Error("resumed scores differ from testdata/golden_scores_ck34.txt")
		}
		got, err := os.ReadFile(path)
		want, _ := os.ReadFile(committed)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("resumed CK34.gob differs from testdata/paircache/CK34.gob (%v)", err)
		}
	}
}
