// Command psccluster consumes an all-vs-all comparison run the way the
// paper's introduction motivates: it prints the ranked retrieval list
// for a query and the fold families found by clustering the TM-score
// matrix.
//
// Usage:
//
//	psccluster [-dataset CK34|RS119] [-query ID] [-threshold 0.5]
//	           [-linkage single|average] [-cache DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rckalign/internal/cluster"
	"rckalign/internal/core"
	"rckalign/internal/pairstore"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

func main() {
	dataset := flag.String("dataset", "CK34", "dataset: CK34 or RS119")
	query := flag.String("query", "", "structure ID for ranked retrieval (empty = first)")
	threshold := flag.Float64("threshold", 0.5, "same-fold similarity threshold")
	linkage := flag.String("linkage", "single", "clustering linkage: single or average")
	topk := flag.Int("top", 10, "hits to print for the query")
	dendro := flag.Bool("dendrogram", false, "print the average-linkage dendrogram")
	cacheDir := flag.String("cache", "testdata/paircache", "pair-result cache directory")
	flag.Parse()

	ds, err := synth.ByName(*dataset)
	if err != nil {
		fatal(err)
	}
	cachePath := ""
	if *cacheDir != "" {
		cachePath = filepath.Join(*cacheDir, ds.Name+".gob")
	}
	pr, err := core.ComputeOrLoadShared(ds, tmalign.DefaultOptions(), cachePath, pairstore.New(0))
	if err != nil {
		fatal(err)
	}
	m := cluster.FromPairResults(pr)

	q := 0
	if *query != "" {
		q = -1
		for i := 0; i < m.Len(); i++ {
			if m.Name(i) == *query {
				q = i
				break
			}
		}
		if q < 0 {
			fatal(fmt.Errorf("query %q not in dataset", *query))
		}
	}

	fmt.Printf("ranked retrieval for %s (top %d):\n", m.Name(q), *topk)
	for rank, hit := range m.Rank(q) {
		if rank >= *topk {
			break
		}
		marker := ""
		if hit.Score >= *threshold {
			marker = "  <- same fold"
		}
		fmt.Printf("  %3d. %-8s TM=%.3f%s\n", rank+1, hit.Name, hit.Score, marker)
	}

	var clusters [][]int
	switch *linkage {
	case "single":
		clusters = m.SingleLinkage(*threshold)
	case "average":
		clusters = m.CutAverageLinkage(*threshold)
	default:
		fatal(fmt.Errorf("unknown linkage %q", *linkage))
	}
	fmt.Printf("\nfold families (%s linkage, TM >= %.2f): %d clusters\n",
		*linkage, *threshold, len(clusters))
	fmt.Print(cluster.FormatClusters(m, clusters))

	if *dendro {
		fmt.Println("\naverage-linkage dendrogram:")
		fmt.Print(m.Dendrogram())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psccluster:", err)
	os.Exit(1)
}
