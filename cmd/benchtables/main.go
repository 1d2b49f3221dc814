// Command benchtables regenerates every table and figure of the paper's
// evaluation section, printing the reproduction's numbers next to the
// published ones.
//
// Usage:
//
//	benchtables                      # all tables, CK34 + RS119
//	benchtables -table 2             # a single table (1-5)
//	benchtables -ablations           # scheduling, master-tree and faster-cores ablations
//	benchtables -cache DIR           # pair-result cache location
//	benchtables -ck34only            # skip RS119 (fast path)
package main

import (
	"flag"
	"fmt"
	"os"

	"rckalign/internal/experiments"
	"rckalign/internal/stats"
	"rckalign/internal/tmalign"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-5); 0 = all")
	ablations := flag.Bool("ablations", false, "also run the scheduling, master-tree and faster-cores ablations")
	figures := flag.Bool("figures", false, "also render Figures 5 and 6 as ASCII plots")
	cacheDir := flag.String("cache", "testdata/paircache", "pair-result cache directory")
	ck34only := flag.Bool("ck34only", false, "skip RS119 (Table III/IV/V show CK34 rows only)")
	fast := flag.Bool("fast", false, "fast TM-align profile when (re)computing pair results")
	flag.Parse()

	if *table == 1 {
		fmt.Println(experiments.TableI().String())
		return
	}

	opt := tmalign.DefaultOptions()
	if *fast {
		opt = tmalign.FastOptions()
	}
	var env *experiments.Env
	var err error
	if *ck34only {
		env, err = experiments.LoadCK34Only(*cacheDir, opt)
	} else {
		env, err = experiments.Load(*cacheDir, opt)
	}
	if err != nil {
		fatal(err)
	}

	emit := func(tb *stats.Table, err error) {
		if err != nil {
			fatal(err)
		}
		fmt.Println(tb.String())
	}

	switch *table {
	case 0:
		fmt.Println(experiments.TableI().String())
		emit(env.TableII())
		emit(env.TableIII(), nil)
		emit(env.TableIV())
		emit(env.TableV())
		if *figures {
			if fig, err := env.Figure5(64, 20); err == nil {
				fmt.Println(fig)
			}
			if fig, err := env.Figure6(64, 20); err == nil {
				fmt.Println(fig)
			}
		}
		if *ablations {
			emit(env.SchedulingAblation())
			emit(env.MasterTreeAblation())
			emit(env.FasterCoresAblation())
			emit(experiments.MCPSCPartitionAblation())
		}
	case 2:
		emit(env.TableII())
	case 3:
		emit(env.TableIII(), nil)
	case 4:
		emit(env.TableIV())
	case 5:
		emit(env.TableV())
	default:
		fatal(fmt.Errorf("unknown table %d", *table))
	}
	if *ablations && *table != 0 {
		emit(env.SchedulingAblation())
		emit(env.MasterTreeAblation())
		emit(env.FasterCoresAblation())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtables:", err)
	os.Exit(1)
}
