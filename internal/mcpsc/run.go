package mcpsc

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
)

// RunConfig tunes the replay.
type RunConfig struct {
	// ResultBytes models the wire size of one result message (nil =
	// ScoreBytes). Override to study the result-traffic sensitivity or
	// to pin the legacy flat 64-byte model.
	ResultBytes func(Score) int
}

// ScoreBytes models the wire size of one multi-criteria result as a
// slave returns it to the master: a small header, the method label, the
// score value and the operation counters that travel with it for the
// master's per-method accounting.
func ScoreBytes(s Score) int {
	const (
		header   = 16                        // framing: method length + job routing
		value    = 8                         // float64 score
		counters = int(unsafe.Sizeof(s.Ops)) // the full Counter block
	)
	return header + len(s.Method) + value + counters
}

// RunResult reports one simulated multi-criteria run: what the partition
// cost. The scores are the table's.
type RunResult struct {
	farm.Report
	// Slaves[m] counts the cores assigned to Methods[m].
	Slaves []int
	// BusySeconds[m] sums the compute seconds of Methods[m]'s jobs, in
	// the order the master collected them.
	BusySeconds []float64
}

// RoundRobin deals slaves to methods one at a time: slave k serves
// method k mod methods (Run's assignment, slave -> method).
func RoundRobin(methods, slaves int) []int {
	if methods < 1 {
		return nil
	}
	assign := make([]int, max(slaves, 0))
	for k := range assign {
		assign[k] = k % methods
	}
	return assign
}

// EqualPartition is the shares RoundRobin deals (earlier methods take
// the remainder). Neither strategy hands out more than slaves: with
// fewer slaves than methods some shares are 0, which Run rejects.
func EqualPartition(methods, slaves int) []int {
	sizes := make([]int, max(methods, 0))
	for _, m := range RoundRobin(methods, slaves) {
		sizes[m]++
	}
	return sizes
}

// ProportionalPartition reads each method's cost on a probe pair (the
// first structure against the middle one) from the table and hands out
// the slaves one at a time to the method with the highest cost per
// slave it already has, a method without one first. This is the "assess
// the algorithm complexities" strategy the paper anticipates.
func ProportionalPartition(sc *Scores, slaves int) ([]int, error) {
	probe := slices.Index(sc.Pairs, sched.Pair{I: 0, J: sc.Dataset.Len() / 2})
	if probe < 0 {
		return nil, fmt.Errorf("mcpsc: probe pair (0,%d) is not in the score table", sc.Dataset.Len()/2)
	}
	cpu := scc.DefaultConfig().CPU
	costs := make([]float64, len(sc.Methods))
	for m := range costs {
		costs[m] = max(cpu.Seconds(sc.Row(m)[probe].Ops), 1e-9)
	}
	out := make([]int, len(costs))
	for assigned := 0; assigned < slaves; assigned++ {
		best, bestLoad := 0, -1.0
		for m, n := range out {
			load := math.Inf(1)
			if n > 0 {
				load = costs[m] / float64(n)
			}
			if load > bestLoad {
				best, bestLoad = m, load
			}
		}
		out[best]++
	}
	return out, nil
}

// Contiguous lays a partition onto the slaves as dedicated core ranges
// instead: method m gets the next sizes[m] slaves.
func Contiguous(sizes []int) []int {
	var assign []int
	for m, n := range sizes {
		for ; n > 0; n-- {
			assign = append(assign, m)
		}
	}
	return assign
}

// Run simulates the table's multi-criteria task on the SCC (master on
// core 0, the paper's busy polling): slave k of the placement serves
// method assign[k], so every method works through the whole pair list on
// its own cores, concurrently with the others — the paper's MC-PSC
// proposal. It is a replay: job m*len(Pairs)+k looks its score up and
// charges the measured operation counts to the simulated core.
func Run(sc *Scores, assign []int, cfg RunConfig) (RunResult, error) {
	out := RunResult{Slaves: make([]int, len(sc.Methods)), BusySeconds: make([]float64, len(sc.Methods))}
	for k, m := range assign {
		if m < 0 || m >= len(sc.Methods) {
			return out, fmt.Errorf("mcpsc: slave %d assigned to method %d of %d", k, m, len(sc.Methods))
		}
		out.Slaves[m]++
	}
	if m := slices.Index(out.Slaves, 0); m >= 0 {
		return out, fmt.Errorf("mcpsc: need at least one slave per method: %s (method %d) has none of the %d",
			sc.Methods[m].Name(), m, len(assign))
	}
	chip := scc.DefaultConfig()
	s, err := farm.NewSession(farm.Config{Chip: chip, Slaves: len(assign), PollingScale: 1})
	if err != nil {
		return out, err
	}
	queueOf := make(map[int]int, len(assign))
	for k, c := range s.Placement().Cores {
		queueOf[c] = assign[k]
	}
	ds, np := sc.Dataset, len(sc.Pairs)
	queues := make([][]rckskel.Job, len(sc.Methods))
	for m := range queues {
		queues[m], err = farm.BuildJobs(sc.Pairs, m*np, func(p sched.Pair) int {
			return core.StructBytes(ds.Structures[p.I].Len()) + core.StructBytes(ds.Structures[p.J].Len())
		})
		if err != nil {
			return out, err
		}
	}
	resultBytes := cfg.ResultBytes
	if resultBytes == nil {
		resultBytes = ScoreBytes
	}
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		score := sc.byJob[job.ID]
		return score, score.Ops, resultBytes(score)
	})
	out.Report, err = s.Run("", func(m *farm.Master) {
		m.LoadResidues(ds.TotalResidues())
		m.FarmWork(farm.Work{Queues: queues, QueueOf: queueOf}, func(r rckskel.Result) {
			out.BusySeconds[r.JobID/np] += chip.CPU.Seconds(sc.byJob[r.JobID].Ops)
		})
		m.Terminate()
	})
	return out, err
}
