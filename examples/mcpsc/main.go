// Multi-criteria PSC (the paper's proposed extension): different slave
// cores run different comparison algorithms on the same data, and the
// per-method scores fuse into a consensus ranking.
//
// Run with:
//
//	go run ./examples/mcpsc
package main

import (
	"fmt"
	"log"

	"rckalign/internal/mcpsc"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

func main() {
	ds := synth.Small(10, 404) // fa01..fa05 + fb01..fb05
	query := 0                 // fa01: its family mates should rank on top
	methods := []mcpsc.Method{
		mcpsc.TMAlign{Opt: tmalign.FastOptions()},
		mcpsc.GaplessRMSD{},
		mcpsc.ContactOverlap{},
	}

	fmt.Printf("query %s against %d targets with %d methods on 12 slave cores\n\n",
		ds.Structures[query].ID, ds.Len()-1, len(methods))

	// Compute the score table once (query x targets, every method), then
	// replay it through the simulated SCC with the slaves dealt
	// round-robin among the methods.
	pairs, err := mcpsc.QueryPairs(ds, query)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := mcpsc.Compute(ds, pairs, methods, pairstore.New(0))
	if err != nil {
		log.Fatal(err)
	}
	res, err := mcpsc.Run(sc, mcpsc.RoundRobin(len(methods), 12))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("slave partition per method:")
	for m, method := range methods {
		fmt.Printf("  %-16s %d cores\n", method.Name(), res.Slaves[m])
	}

	perMethod := make([][]float64, len(methods))
	for m := range methods {
		perMethod[m] = sc.Values(m)
	}
	consensus := mcpsc.Consensus(perMethod)

	fmt.Println("\nper-method similarity scores:")
	fmt.Printf("  %-8s", "target")
	for _, m := range methods {
		fmt.Printf("  %-16s", m.Name())
	}
	fmt.Println("  consensus(z)")
	for pos, p := range pairs {
		fmt.Printf("  %-8s", ds.Structures[p.J].ID)
		for m := range methods {
			fmt.Printf("  %-16.3f", perMethod[m][pos])
		}
		fmt.Printf("  %+.3f\n", consensus[pos])
	}

	fmt.Println("\nconsensus ranking (most similar first):")
	for rank, pos := range mcpsc.Rank(consensus) {
		fmt.Printf("  %2d. %s\n", rank+1, ds.Structures[pairs[pos].J].ID)
	}
	fmt.Printf("\nsimulated makespan on the SCC: %.1f s\n", res.TotalSeconds)
}
