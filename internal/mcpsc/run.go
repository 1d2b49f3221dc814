package mcpsc

import (
	"fmt"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/pairstore"
	"rckalign/internal/pdb"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/synth"
	"rckalign/internal/trace"
)

// RunConfig tunes a simulated MC-PSC execution.
type RunConfig struct {
	Chip       scc.Config
	MasterCore int
	// ResultBytes models the wire size of one result message (nil =
	// ScoreBytes). Override to study the result-traffic sensitivity or
	// to pin the legacy flat 64-byte model.
	ResultBytes func(Score) int
	// Trace, when non-nil, receives per-core activity intervals.
	Trace *trace.Recorder
	// Collector, when non-nil, observes every collected result.
	Collector farm.Collector
	// Store, when non-nil, memoizes native method evaluations: every
	// (method parameters, pair) is computed once on the host worker pool
	// and reused across runs sharing the store (partition ablations,
	// sweeps). Nil keeps the classic inline-compute path. Simulated
	// timing is unchanged either way — see the pairstore package.
	Store *pairstore.Store
}

// DefaultRunConfig mirrors the rckAlign setup (master on core 0).
func DefaultRunConfig() RunConfig {
	return RunConfig{Chip: scc.DefaultConfig(), MasterCore: 0}
}

// session maps an MC-PSC config onto the farm harness. MC-PSC always
// uses the paper's busy polling (PollingScale 1); its farms are
// partitioned, one job queue per method.
func (cfg RunConfig) session(slaves int) farm.Config {
	return farm.Config{
		Chip:         cfg.Chip,
		MasterCore:   cfg.MasterCore,
		Slaves:       slaves,
		PollingScale: 1,
		Trace:        cfg.Trace,
		Collector:    cfg.Collector,
	}
}

// resultBytes returns the configured result wire-size model.
func (cfg RunConfig) resultBytes() func(Score) int {
	if cfg.ResultBytes != nil {
		return cfg.ResultBytes
	}
	return ScoreBytes
}

// RunResult is the outcome of a simulated multi-criteria one-vs-all
// query.
type RunResult struct {
	farm.Report
	// Targets lists the dataset indices compared against the query.
	Targets []int
	// PerMethod maps method name to similarity scores (aligned with
	// Targets).
	PerMethod map[string][]float64
	// Consensus is the z-score-fused similarity (aligned with Targets).
	Consensus []float64
	// Ranking orders positions in Targets by descending consensus.
	Ranking []int
	// SlavesPerMethod records the core partition sizes.
	SlavesPerMethod map[string]int
}

// RunOneVsAll simulates a multi-criteria one-vs-all query on the SCC:
// the master broadcasts the query and each target structure; the slave
// cores are partitioned among the methods (round-robin), so every method
// processes every target on its own cores, concurrently with the other
// methods — the paper's MC-PSC proposal. Comparisons execute natively
// inside the simulation and charge their measured operation counts to
// the simulated cores.
func RunOneVsAll(ds *synth.Dataset, query int, methods []Method, slaves int, cfg RunConfig) (RunResult, error) {
	if query < 0 || query >= ds.Len() {
		return RunResult{}, fmt.Errorf("mcpsc: query %d outside dataset", query)
	}
	if len(methods) == 0 {
		return RunResult{}, fmt.Errorf("mcpsc: no methods")
	}
	if slaves < len(methods) {
		return RunResult{}, fmt.Errorf("mcpsc: need at least one slave per method (%d methods, %d slaves)", len(methods), slaves)
	}
	if slaves > cfg.Chip.NumCores()-1 {
		return RunResult{}, fmt.Errorf("mcpsc: %d slaves exceed chip capacity %d", slaves, cfg.Chip.NumCores()-1)
	}

	s, err := farm.NewSession(cfg.session(slaves))
	if err != nil {
		return RunResult{}, err
	}
	slaveIDs := s.Placement().Cores

	// Partition slaves among methods round-robin.
	methodOf := map[int]int{}
	perMethodSlaves := map[string]int{}
	for m, group := range farm.PartitionRoundRobin(slaveIDs, len(methods)) {
		perMethodSlaves[methods[m].Name()] = len(group)
		for _, c := range group {
			methodOf[c] = m
		}
	}

	var targets []int
	for i := 0; i < ds.Len(); i++ {
		if i != query {
			targets = append(targets, i)
		}
	}

	// Per-method job queues over the same target list; payloadOf inverts
	// the ID layout.
	type payload struct {
		method int
		pos    int // index into targets
	}
	queues := make([][]rckskel.Job, len(methods))
	for m := range methods {
		queues[m] = make([]rckskel.Job, 0, len(targets))
		for pos, tgt := range targets {
			queues[m] = append(queues[m], rckskel.Job{
				ID:      m*len(targets) + pos,
				Payload: payload{method: m, pos: pos},
				Bytes:   core.StructBytes(ds.Structures[query].Len()) + core.StructBytes(ds.Structures[tgt].Len()),
			})
		}
	}
	rb := cfg.resultBytes()
	prefetchQueues(cfg.Store, ds, methods, queues, func(pl any) (*pdb.Structure, *pdb.Structure) {
		p := pl.(payload)
		return ds.Structures[query], ds.Structures[targets[p.pos]]
	})

	s.StartSlavesWith(func(slave int) rckskel.Handler {
		m := methods[methodOf[slave]]
		return func(job rckskel.Job) (any, costmodel.Counter, int) {
			pl := job.Payload.(payload)
			sc := memoizedScore(cfg.Store, m, ds.Name, ds.Structures[query], ds.Structures[targets[pl.pos]])
			return sc, sc.Ops, rb(sc)
		}
	})

	out := RunResult{
		Targets:         targets,
		PerMethod:       map[string][]float64{},
		SlavesPerMethod: perMethodSlaves,
	}
	for _, m := range methods {
		out.PerMethod[m.Name()] = make([]float64, len(targets))
	}

	rep, err := s.Run("", func(m *farm.Master) {
		m.LoadResidues(ds.TotalResidues())
		m.FarmWork(farm.Work{Queues: queues, QueueOf: methodOf}, func(r rckskel.Result) {
			sc := r.Payload.(Score)
			pl := payloadOf(r.JobID, len(targets))
			out.PerMethod[sc.Method][pl] = sc.Value
		})
		m.Terminate()
	})
	out.Report = rep
	if err != nil {
		return out, err
	}

	var vectors [][]float64
	for _, m := range methods {
		vectors = append(vectors, out.PerMethod[m.Name()])
	}
	out.Consensus = Consensus(vectors)
	out.Ranking = Rank(out.Consensus)
	return out, nil
}

// payloadOf recovers the target position from a job id (inverse of the
// ID layout in RunOneVsAll).
func payloadOf(jobID, numTargets int) int { return jobID % numTargets }

// RankedTargets maps a ranking (positions into Targets) to dataset
// indices.
func (r RunResult) RankedTargets() []int {
	out := make([]int, len(r.Ranking))
	for i, pos := range r.Ranking {
		out[i] = r.Targets[pos]
	}
	return out
}
