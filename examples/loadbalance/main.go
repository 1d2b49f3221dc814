// Scheduling ablation: the paper ships FIFO job order and notes that
// "good load balancing approaches can improve the performance of
// all-vs-all PSC" as future work. This example quantifies that claim by
// replaying the same workload under FIFO, LPT (longest first), SPT
// (shortest first — the anti-pattern) and Random orders.
//
// Run with:
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"

	"rckalign/internal/core"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

func main() {
	// Two families with very different chain lengths make the job-cost
	// spread large, which is where scheduling matters.
	ds := synth.Small(14, 7001)
	pr := core.ComputeAllPairsShared(ds, tmalign.FastOptions(), pairstore.New(0))
	fmt.Printf("dataset: %d chains, %d jobs\n\n", ds.Len(), ds.Pairs())

	orders := []sched.Order{sched.FIFO, sched.LPT, sched.SPT, sched.Random}
	fmt.Println("slaves   FIFO(s)    LPT(s)    SPT(s)  Random(s)   LPT gain")
	for _, n := range []int{4, 8, 16, 32} {
		times := make([]float64, len(orders))
		for i, o := range orders {
			cfg := core.DefaultConfig()
			cfg.Order = o
			cfg.OrderSeed = 7
			r, err := core.Run(pr, n, cfg)
			if err != nil {
				log.Fatal(err)
			}
			times[i] = r.TotalSeconds
		}
		fmt.Printf("%6d  %8.1f  %8.1f  %8.1f  %9.1f   %7.1f%%\n",
			n, times[0], times[1], times[2], times[3],
			100*(times[0]-times[1])/times[0])
	}

	fmt.Println("\nLPT trims the straggler tail (a long job landing last idles")
	fmt.Println("the other cores); SPT maximises it. The gap widens with the")
	fmt.Println("slave count, confirming the paper's expectation that load")
	fmt.Println("balancing matters most at scale.")
}
