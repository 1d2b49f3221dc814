// All-vs-all on the simulated SCC: the paper's headline experiment in
// miniature.
//
// A master core loads a small dataset, FARMs the pairwise TM-align jobs
// to slave cores over the simulated mesh, and we read back both the
// biology (which chains share a fold) and the systems result (how the
// simulated time falls as slave cores are added). Run with:
//
//	go run ./examples/allvsall
package main

import (
	"fmt"
	"log"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

func main() {
	// A 12-chain dataset (two fold families) keeps the native TM-align
	// pass quick; swap in synth.CK34() for the paper's full experiment.
	ds := synth.Small(12, 2026)
	fmt.Printf("dataset: %d chains, %d pairwise jobs\n\n", ds.Len(), ds.Pairs())

	// Native TM-align over all pairs (computed once; the simulator
	// replays the measured per-job costs).
	pr := core.ComputeAllPairsShared(ds, tmalign.DefaultOptions(), pairstore.New(0))

	// Fold assignment from the scores: pairs with TM > 0.5 share a fold.
	sameFold := 0
	for _, r := range pr.Results {
		if r.TM() > 0.5 {
			sameFold++
		}
	}
	fmt.Printf("pairs sharing a fold (TM > 0.5): %d of %d\n", sameFold, len(pr.Results))

	serial := pr.SerialSeconds(costmodel.P54C())
	fmt.Printf("serial time on one SCC core: %.1f simulated seconds\n\n", serial)

	fmt.Println("slaves  time(s)  speedup  efficiency  slave-busy")
	cfg := core.DefaultConfig()
	masterTrack := cfg.Chip.CoreName(0)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 47} {
		r, err := core.Run(pr, n, cfg)
		if err != nil {
			log.Fatal(err)
		}
		sp := serial / r.TotalSeconds
		// Every run carries a farm.Report with per-core utilization; the
		// mean slave busy fraction shows where the farm stops scaling.
		busy, cores := 0.0, 0
		for track, u := range r.CoreUtilization {
			if track != masterTrack {
				busy += u
				cores++
			}
		}
		if cores > 0 {
			busy /= float64(cores)
		}
		fmt.Printf("%6d  %7.1f  %7.2f  %9.2f  %9.0f%%\n", n, r.TotalSeconds, sp, sp/float64(n), 100*busy)
	}

	fmt.Println("\nThe almost-linear speedup is the paper's core claim: on a")
	fmt.Println("mesh NoC the master-slaves farm keeps 47 slave cores busy")
	fmt.Println("because per-job data transfers are microseconds against")
	fmt.Println("multi-second comparisons.")
}
