package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rckalign/internal/costmodel"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// The native TM-align pass over a full dataset is expensive (minutes of
// host CPU for RS119's 7021 pairs), while the simulation sweeps replay
// it dozens of times. Pair results therefore persist in a cache
// directory, keyed like the pair store: one file per (dataset, kernel)
// holding whichever canonical pairs have been computed, rewritten whole
// after every checkpointPairs computed pairs. Results are deterministic,
// so the cache is a pure memoisation — delete it to force recomputation.

// checkpointPairs is how many pairs ComputeCached computes between two
// rewrites of the cache file, so a killed run loses at most that many.
const checkpointPairs = 256

// cachedResult is the on-disk form of one comparison (the alignment map
// and transform are not needed by the timing replays and are omitted to
// keep cache files small). It is read back as the tmalign.Result fields
// of the same names.
type cachedResult struct {
	Name1, Name2           string
	Len1, Len2, AlignedLen int
	RMSD, SeqID, TM1, TM2  float64
	Ops                    costmodel.Counter
}

// cacheFile is one (dataset, kernel) file, written with R = cachedResult
// and read with R = tmalign.Result (gob matches fields by name).
type cacheFile[R any] struct {
	Dataset string
	Kernel  string // tmalign.Options.Key()
	Names   []string
	Lengths []int
	// Slots[k] is the sched.AllVsAll index of Results[k]'s pair,
	// strictly increasing.
	Slots   []int
	Results []R
}

// cachePath names the (dataset, kernel) file in dir: <ds>.gob for the
// default kernel, <ds>.<kernel key>.gob for any other (its '/' and ':'
// made '-': CK34.tmalign-s40-f8-i10-ltrue.gob for the fast profile).
func cachePath(dir, dataset, kernel string) string {
	if kernel == tmalign.DefaultOptions().Key() {
		return filepath.Join(dir, dataset+".gob")
	}
	return filepath.Join(dir, dataset+"."+strings.NewReplacer("/", "-", ":", "-").Replace(kernel)+".gob")
}

// pairSlot is p's index in sched.AllVsAll(n) order.
func pairSlot(n int, p sched.Pair) int { return p.I*n - p.I*(p.I+1)/2 + p.J - p.I - 1 }

// ComputeCached returns the results of ds's canonical pairs under opt.
// With a cache dir it loads whatever that (dataset, kernel) file holds,
// computes only the missing pairs through the store (each structure
// prepared once for all of them), and rewrites the file (to a temporary
// name, then renamed over it) after every checkpointPairs of them, so a
// killed run resumes where its last checkpoint left off. A missing,
// foreign or damaged file holds nothing and is overwritten. With dir ""
// every pair is computed in one pass and nothing is written. Loaded
// results carry no alignment map or transform.
func ComputeCached(ds *synth.Dataset, opt tmalign.Options, pairs []sched.Pair, dir string, store *pairstore.Store) (*PairResults, error) {
	if dir == "" {
		return ComputePairsShared(ds, opt, store, pairs), nil
	}
	n, kernel := ds.Len(), opt.Key()
	path := cachePath(dir, ds.Name, kernel)
	have, err := readCache(ds, kernel, path)
	if err != nil {
		have = make([]*tmalign.Result, n*(n-1)/2)
	}
	var missing []sched.Pair
	for _, p := range pairs {
		if p.I < 0 || p.I >= p.J || p.J >= n {
			return nil, fmt.Errorf("core: pair %d-%d is not a canonical pair of %s", p.I, p.J, ds.Name)
		}
		if have[pairSlot(n, p)] == nil {
			missing = append(missing, p)
		}
	}
	eval := pairEvaluator(ds, opt, store)
	for len(missing) > 0 {
		chunk := missing[:min(checkpointPairs, len(missing))]
		missing = missing[len(chunk):]
		for k, v := range eval(chunk) {
			have[pairSlot(n, chunk[k])] = v.(*tmalign.Result)
		}
		if err := writeCache(ds, kernel, path, have); err != nil {
			return nil, fmt.Errorf("core: caching %s results: %w", ds.Name, err)
		}
	}
	return newPairResults(ds, pairs, func(k int) *tmalign.Result { return have[pairSlot(n, pairs[k])] }), nil
}

// LoadPairResults reads a complete default-kernel cache file of ds's
// all-vs-all; a file for another dataset or kernel, or one that misses
// a pair, is an error.
func LoadPairResults(ds *synth.Dataset, path string) (*PairResults, error) {
	have, err := readCache(ds, tmalign.DefaultOptions().Key(), path)
	if err != nil {
		return nil, err
	}
	for k, r := range have {
		if r == nil {
			return nil, fmt.Errorf("core: cache %s is partial: pair %d of %d missing", path, k, len(have))
		}
	}
	return newPairResults(ds, sched.AllVsAll(ds.Len()), func(k int) *tmalign.Result { return have[k] }), nil
}

// readCache reads the (ds, kernel) file at path into slots indexed by
// pairSlot, nil where the file holds no result.
func readCache(ds *synth.Dataset, kernel, path string) ([]*tmalign.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	have, err := decodeCache(f, ds, kernel)
	if err != nil {
		return nil, fmt.Errorf("core: cache %s: %w", path, err)
	}
	return have, nil
}

// decodeCache decodes one cache file and checks it against the dataset
// (names and lengths must match exactly) and the kernel; every record
// must sit in a slot of the all-vs-all, in increasing order, and repeat
// the names and lengths of that slot's pair.
func decodeCache(r io.Reader, ds *synth.Dataset, kernel string) ([]*tmalign.Result, error) {
	var cf cacheFile[tmalign.Result]
	if err := gob.NewDecoder(r).Decode(&cf); err != nil {
		return nil, err
	}
	n := ds.Len()
	if cf.Dataset != ds.Name || cf.Kernel != kernel || len(cf.Names) != n || len(cf.Lengths) != n {
		return nil, fmt.Errorf("holds %s/%d under %q, want %s/%d under %q",
			cf.Dataset, len(cf.Names), cf.Kernel, ds.Name, n, kernel)
	}
	for i, s := range ds.Structures {
		if cf.Names[i] != s.ID || cf.Lengths[i] != s.Len() {
			return nil, fmt.Errorf("structure %d is %s/%d, want %s/%d", i, cf.Names[i], cf.Lengths[i], s.ID, s.Len())
		}
	}
	if len(cf.Slots) != len(cf.Results) {
		return nil, fmt.Errorf("%d slots for %d results", len(cf.Slots), len(cf.Results))
	}
	pairs := sched.AllVsAll(n)
	have := make([]*tmalign.Result, len(pairs))
	last := -1
	for k, slot := range cf.Slots {
		r := &cf.Results[k]
		if slot <= last || slot >= len(pairs) {
			return nil, fmt.Errorf("record %d is in slot %d after slot %d of %d", k, slot, last, len(pairs))
		}
		if p := pairs[slot]; r.Name1 != cf.Names[p.I] || r.Name2 != cf.Names[p.J] || r.Len1 != cf.Lengths[p.I] || r.Len2 != cf.Lengths[p.J] {
			return nil, fmt.Errorf("record %d (%s/%d %s/%d) is not pair %d-%d's", k, r.Name1, r.Len1, r.Name2, r.Len2, p.I, p.J)
		}
		have[slot], last = r, slot
	}
	return have, nil
}

// writeCache writes the non-nil slots of have as the (ds, kernel) file
// at path, creating parent directories as needed. The file is written
// under a temporary name and renamed over path, so a reader never sees
// it torn.
func writeCache(ds *synth.Dataset, kernel, path string, have []*tmalign.Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	cf := cacheFile[cachedResult]{Dataset: ds.Name, Kernel: kernel}
	for _, s := range ds.Structures {
		cf.Names = append(cf.Names, s.ID)
		cf.Lengths = append(cf.Lengths, s.Len())
	}
	for slot, r := range have {
		if r != nil {
			cf.Slots = append(cf.Slots, slot)
			cf.Results = append(cf.Results, cachedResult{
				Name1: r.Name1, Name2: r.Name2,
				Len1: r.Len1, Len2: r.Len2, AlignedLen: r.AlignedLen,
				RMSD: r.RMSD, SeqID: r.SeqID, TM1: r.TM1, TM2: r.TM2,
				Ops: r.Ops,
			})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&cf); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
