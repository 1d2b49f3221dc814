// Ranked retrieval and fold-family detection: the downstream biology the
// paper's introduction motivates ("retrieve a ranked list of proteins,
// where structurally similar proteins are ranked higher"), driven by the
// all-vs-all comparison matrix, plus a per-core utilization report from
// the simulated SCC run that produced it.
//
// Run with:
//
//	go run ./examples/retrieval
package main

import (
	"fmt"
	"log"

	"rckalign/internal/cluster"
	"rckalign/internal/core"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/trace"
)

func main() {
	ds := synth.Small(12, 808) // two synthetic fold families
	pr := core.ComputeAllPairsShared(ds, tmalign.FastOptions(), pairstore.New(0))

	// Simulate the all-vs-all run on the SCC with tracing enabled.
	cfg := core.DefaultConfig()
	rec := trace.New()
	cfg.Trace = rec
	run, err := core.Run(pr, 8, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all-vs-all of %d chains on 8 SCC slaves: %.1f simulated s\n\n",
		ds.Len(), run.TotalSeconds)

	m := cluster.FromPairResults(pr)

	// One-vs-all ranked retrieval for the first chain.
	fmt.Printf("ranked retrieval for query %s:\n", ds.Structures[0].ID)
	for rank, hit := range m.Rank(0) {
		marker := ""
		if hit.Score > 0.5 {
			marker = "  <- same fold (TM > 0.5)"
		}
		fmt.Printf("  %2d. %-6s TM=%.3f%s\n", rank+1, hit.Name, hit.Score, marker)
		if rank >= 7 {
			break
		}
	}

	// Fold families from single-linkage clustering at TM > 0.5.
	fmt.Println("\nfold families (single linkage, TM > 0.5):")
	cl := m.SingleLinkage(0.5)
	fmt.Print(cluster.FormatClusters(m, cl))

	labels := make([]string, ds.Len())
	for i, s := range ds.Structures {
		labels[i] = s.ID[:2]
	}
	fmt.Printf("cluster purity vs generating families: %.2f\n", cluster.Purity(cl, labels))
	fmt.Printf("top-3 retrieval accuracy: %.2f\n\n", m.TopKAccuracy(labels, 3))

	// Where did the simulated time go? Per-core utilization.
	fmt.Println("per-core utilization of the simulated run:")
	fmt.Print(rec.UtilizationTable(40))
}
