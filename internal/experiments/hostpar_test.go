package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// TestHostParGoldenCK34 is the determinism-contract golden test: a CK34
// run whose pairs were evaluated by a pair store with 8 host workers
// must be byte-identical — per-pair results, score dump, report timings
// and the full metrics snapshot — to one evaluated serially.
// Host parallelism may only move host wall-clock time.
func TestHostParGoldenCK34(t *testing.T) {
	if testing.Short() {
		t.Skip("native CK34 compute in -short mode")
	}
	opt := tmalign.FastOptions()

	type outcome struct {
		pr      *core.PairResults
		lines   []string
		total   float64
		metrics []byte
	}
	eval := func(workers int) outcome {
		// Fresh dataset per store so nothing is shared but the contract.
		ds, err := synth.ByName("CK34")
		if err != nil {
			t.Fatal(err)
		}
		store := pairstore.New(workers)
		pr := core.ComputeAllPairsShared(ds, opt, store)
		if st := store.StatsSnapshot(); st.Misses != int64(len(pr.Pairs)) {
			t.Fatalf("store computed %d of %d pairs", st.Misses, len(pr.Pairs))
		}
		var reg *metrics.Registry
		lines, run := runScores(t, pr, func(c *core.Config) {
			reg = metrics.New()
			c.Metrics = reg
		})
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return outcome{pr: pr, lines: lines, total: run.TotalSeconds, metrics: buf.Bytes()}
	}

	serial := eval(1)
	parallel := eval(8)

	for k := range serial.pr.Results {
		if !reflect.DeepEqual(serial.pr.Results[k], parallel.pr.Results[k]) {
			t.Fatalf("pair %v differs between serial and parallel evaluation:\nserial   %+v\nparallel %+v",
				serial.pr.Pairs[k], serial.pr.Results[k], parallel.pr.Results[k])
		}
	}
	for i := range serial.lines {
		if serial.lines[i] != parallel.lines[i] {
			t.Fatalf("score dump diverges at line %d:\nserial   %s\nparallel %s",
				i, serial.lines[i], parallel.lines[i])
		}
	}
	if math.Float64bits(serial.total) != math.Float64bits(parallel.total) {
		t.Errorf("simulated makespan differs: serial %v, parallel %v", serial.total, parallel.total)
	}
	if !bytes.Equal(serial.metrics, parallel.metrics) {
		t.Errorf("metrics snapshots differ (%d vs %d bytes)", len(serial.metrics), len(parallel.metrics))
	}
}
