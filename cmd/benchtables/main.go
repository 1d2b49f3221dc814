// Command benchtables regenerates EXPERIMENTS.md's tables and figures —
// the paper's evaluation section next to the published numbers, plus the
// ablations and scale-out sweeps — from the one registry in
// internal/experiments. Its default output is byte-for-byte
// internal/experiments/testdata/experiments.golden.txt.
//
// Usage:
//
//	benchtables                      # every deterministic experiment, registry order
//	benchtables -only table2,polling # the named experiments only
//	benchtables -only serveload      # host-timed entries run only when named
//	benchtables -list                # names, datasets, host-timed marks
//	benchtables -cache DIR           # pair-result cache location
//	benchtables -fast                # fast TM-align profile on a cache miss
//
// Exit status: 0 on success, 1 on a failed experiment, 2 on bad usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rckalign/internal/experiments"
	"rckalign/internal/tmalign"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment names (default: every deterministic one)")
	list := flag.Bool("list", false, "list the experiments and exit")
	cacheDir := flag.String("cache", "testdata/paircache", "pair-result cache directory")
	fast := flag.Bool("fast", false, "fast TM-align profile when (re)computing pair results")
	flag.Parse()

	if *list {
		for _, x := range experiments.Registry() {
			datasets := "-"
			if len(x.Datasets) > 0 {
				datasets = strings.Join(x.Datasets, "+")
			}
			if x.HostTimed {
				datasets += "  (host-timed: only when named)"
			}
			fmt.Printf("%-12s %s\n", x.Name, datasets)
		}
		return
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	exps, err := experiments.Select(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}

	opt := tmalign.DefaultOptions()
	if *fast {
		opt = tmalign.FastOptions()
	}
	var datasets []string
	for _, x := range exps {
		datasets = append(datasets, x.Datasets...)
	}
	env, err := experiments.Load(*cacheDir, opt, datasets...)
	if err == nil {
		err = experiments.Run(os.Stdout, env, exps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}
