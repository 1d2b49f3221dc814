package core

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"rckalign/internal/costmodel"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// The native TM-align pass over a full dataset is expensive (minutes of
// host CPU for RS119's 7021 pairs), while the simulation sweeps replay
// it dozens of times. PairResults therefore serialise to a cache file:
// the experiment drivers compute once and reload afterwards. Results are
// deterministic, so the cache is a pure memoisation — delete it to force
// recomputation.

// cachedResult is the on-disk form of one comparison (the alignment map
// and transform are not needed by the timing replays and are omitted to
// keep cache files small).
type cachedResult struct {
	Name1, Name2           string
	Len1, Len2, AlignedLen int
	RMSD, SeqID, TM1, TM2  float64
	Ops                    costmodel.Counter
}

type cacheFile struct {
	Dataset string
	Names   []string
	Lengths []int
	Results []cachedResult // in sched.AllVsAll order
}

// Save writes the pair results to path (gob encoded), creating parent
// directories as needed.
func (pr *PairResults) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	cf := cacheFile{Dataset: pr.Dataset.Name}
	for _, s := range pr.Dataset.Structures {
		cf.Names = append(cf.Names, s.ID)
		cf.Lengths = append(cf.Lengths, s.Len())
	}
	cf.Results = make([]cachedResult, len(pr.Results))
	for k, r := range pr.Results {
		cf.Results[k] = cachedResult{
			Name1: r.Name1, Name2: r.Name2,
			Len1: r.Len1, Len2: r.Len2, AlignedLen: r.AlignedLen,
			RMSD: r.RMSD, SeqID: r.SeqID, TM1: r.TM1, TM2: r.TM2,
			Ops: r.Ops,
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(&cf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadPairResults reads a cache written by Save and validates it against
// the dataset (names and lengths must match exactly).
func LoadPairResults(ds *synth.Dataset, path string) (*PairResults, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cf cacheFile
	if err := gob.NewDecoder(f).Decode(&cf); err != nil {
		return nil, fmt.Errorf("core: cache %s: %w", path, err)
	}
	if cf.Dataset != ds.Name || len(cf.Names) != ds.Len() {
		return nil, fmt.Errorf("core: cache %s is for dataset %s/%d, want %s/%d",
			path, cf.Dataset, len(cf.Names), ds.Name, ds.Len())
	}
	for i, s := range ds.Structures {
		if cf.Names[i] != s.ID || cf.Lengths[i] != s.Len() {
			return nil, fmt.Errorf("core: cache %s: structure %d is %s/%d, want %s/%d",
				path, i, cf.Names[i], cf.Lengths[i], s.ID, s.Len())
		}
	}
	pairs := sched.AllVsAll(ds.Len())
	if len(cf.Results) != len(pairs) {
		return nil, fmt.Errorf("core: cache %s has %d results, want %d", path, len(cf.Results), len(pairs))
	}
	pr := &PairResults{
		Dataset: ds,
		Pairs:   pairs,
		Results: make([]*tmalign.Result, len(pairs)),
		index:   make(map[sched.Pair]int, len(pairs)),
	}
	for k, p := range pairs {
		pr.index[p] = k
		c := cf.Results[k]
		pr.Results[k] = &tmalign.Result{
			Name1: c.Name1, Name2: c.Name2,
			Len1: c.Len1, Len2: c.Len2, AlignedLen: c.AlignedLen,
			RMSD: c.RMSD, SeqID: c.SeqID, TM1: c.TM1, TM2: c.TM2,
			Ops: c.Ops,
		}
	}
	return pr, nil
}

// ComputeOrLoadShared returns cached pair results when a valid cache
// exists at path, otherwise computes natively and writes the cache. An
// empty path disables caching. On a disk-cache miss the pairs are
// evaluated through the store (see ComputeAllPairsShared), so repeated
// calls — other datasets' overlapping keys, other option sweeps, other
// experiment drivers — pay for each native comparison at most once per
// process.
func ComputeOrLoadShared(ds *synth.Dataset, opt tmalign.Options, path string, store *pairstore.Store) (*PairResults, error) {
	if path != "" {
		if pr, err := LoadPairResults(ds, path); err == nil {
			return pr, nil
		}
	}
	pr := ComputeAllPairsShared(ds, opt, store)
	if path != "" {
		if err := pr.Save(path); err != nil {
			return pr, fmt.Errorf("core: computed results but failed to cache: %w", err)
		}
	}
	return pr, nil
}
