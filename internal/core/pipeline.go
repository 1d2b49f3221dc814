// The run pipeline: plan → stage → shard → farm → report.
//
// Every run builds one plan from (pair results, config): chain sizes,
// ordering, wire model, replay handler and fault-tolerance deadline are
// plan properties, so they apply identically wherever the jobs end up.
// The plan's pair list is cut into stages (one, unless a memory budget
// forces a block load schedule), each stage's ordered pairs into shards
// (one per chip), and each shard becomes a farm.Work farmed by that
// chip's master. The flat single-master run of the paper is the
// one-stage, one-shard case by construction.
package core

import (
	"errors"
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
)

// ErrBudgetAcrossChips is Validate's error: a memory budget on a
// multi-chip run.
var ErrBudgetAcrossChips = errors.New("core: MemoryBudgetResidues does not compose with Chips > 1")

// Validate rejects the one feature combination that stays unsupported;
// every other combination of Config fields composes. A budgeted run's
// load schedule interleaves block loads with farms on a single master's
// clock, while a multi-chip run scatters every shard once, up front.
func (cfg MultiChipConfig) Validate() error {
	if cfg.MemoryBudgetResidues > 0 && cfg.Chips > 1 {
		return ErrBudgetAcrossChips
	}
	return nil
}

// plan is everything about a run that does not depend on where a job
// executes.
type plan struct {
	pr      *PairResults
	cfg     MultiChipConfig
	lengths []int
	cost    func(sched.Pair) float64
	// tile is the resolved blocked-ordering tile (0 = no blocking).
	tile int
	// session is the farm session template: placement, wire shape
	// (resolved cache capacity, batch) and fault-tolerance deadline.
	session farm.Config
	wire    farm.WireModel
	handler rckskel.Handler
}

func newPlan(pr *PairResults, slaves int, cfg MultiChipConfig) (*plan, error) {
	p := &plan{pr: pr, cfg: cfg, lengths: pr.lengths()}
	p.cost = sched.LengthProductCost(p.lengths)
	sizes := make([]int, len(p.lengths))
	total := 0
	for i, l := range p.lengths {
		sizes[i] = StructBytes(l)
		total += l
	}
	p.wire = farm.WireModel{
		StructsOf: func(j rckskel.Job) []int {
			pair := j.Payload.(sched.Pair)
			return []int{pair.I, pair.J}
		},
		Sizes: sizes,
	}

	// Negative CacheStructs derives the capacity from the default
	// per-core cache budget and the dataset's mean chain length.
	cacheCap := cfg.CacheStructs
	if cacheCap < 0 {
		mean := 0
		if len(p.lengths) > 0 {
			mean = total / len(p.lengths)
		}
		cacheCap = costmodel.CacheCapacityStructs(costmodel.DefaultCacheBudgetBytes, mean)
	}
	// Tile 0 auto-selects sched.DefaultTile when the wire model is on;
	// negative forces blocking off.
	switch {
	case cfg.Tile > 0:
		p.tile = cfg.Tile
	case cfg.Tile == 0 && (cacheCap > 0 || cfg.Batch > 1 || cfg.Affinity):
		p.tile = sched.DefaultTile
	}

	p.session = farm.Config{
		Chip:               cfg.Chip,
		Slaves:             slaves,
		ThreadsPerWorker:   cfg.ThreadsPerWorker,
		PollingScale:       cfg.PollingScale,
		Trace:              cfg.Trace,
		Metrics:            cfg.Metrics,
		Collector:          cfg.Collector,
		Batch:              cfg.Batch,
		CacheStructs:       cacheCap,
		Faults:             cfg.Faults,
		JobDeadlineSeconds: cfg.JobDeadlineSeconds,
	}
	place, err := farm.Place(p.session)
	if err != nil {
		return nil, err
	}
	opScale := place.OpScale
	if !cfg.Faults.Empty() && cfg.JobDeadlineSeconds == 0 {
		// Only a plan that injects something arms the farm's failure
		// detection; an empty one leaves every timer unscheduled. A batch
		// is one fault-tolerance unit of up to Batch jobs: its deadline
		// must cover them back to back.
		p.session.JobDeadlineSeconds = DeriveJobDeadline(pr, cfg.Chip.CPU, opScale) * float64(max(cfg.Batch, 1))
	}
	p.handler = func(job rckskel.Job) (any, costmodel.Counter, int) {
		res := pr.Get(job.Payload.(sched.Pair))
		return res, res.Ops.Scaled(opScale), ResultBytes(res.Len2)
	}
	if cfg.Batch > 1 {
		p.handler = farm.BatchHandler(p.handler)
	}
	return p, nil
}

// order applies the ordering policy and then the blocked tiling.
func (p *plan) order(pairs []sched.Pair) ([]sched.Pair, error) {
	ordered, err := sched.Apply(pairs, p.cfg.Order, p.cost, p.cfg.OrderSeed)
	if err != nil {
		return nil, err
	}
	if p.tile > 1 {
		ordered = sched.Blocked(ordered, p.tile)
	}
	return ordered, nil
}

// work turns an ordered pair list into the Work one session's master
// farms: a single job queue in the session's wire shape (cache sizing,
// batching), or under Affinity one queue per placed worker with whole
// tile blocks dealt heaviest-first. Jobs are numbered from idBase in
// queue order, so IDs stay unique across queues, shards and stages. The
// classic request size of a pair is both structures' coordinates.
func (p *plan) work(s *farm.Session, pairs []sched.Pair, idBase int) (farm.Work, error) {
	if len(pairs) == 0 {
		return farm.Work{}, nil
	}
	lists := [][]sched.Pair{pairs}
	if p.cfg.Affinity {
		lists = sched.AffinityAssign(pairs, len(s.Placement().WorkerLeads), p.tile, p.cost)
	}
	queues := make([][]rckskel.Job, len(lists))
	for q, ps := range lists {
		jobs, err := farm.BuildJobs(ps, idBase, func(pair sched.Pair) int {
			return p.wire.Sizes[pair.I] + p.wire.Sizes[pair.J]
		})
		if err != nil {
			return farm.Work{}, err
		}
		idBase += len(ps)
		queues[q] = s.PrepareJobs(jobs, p.wire)
	}
	if p.cfg.Affinity {
		return farm.Work{Queues: queues}, nil
	}
	return farm.Work{Jobs: queues[0]}, nil
}

// stage is one step of the master's load schedule: load residues, then
// farm pairs.
type stage struct {
	residues int
	pairs    []sched.Pair
}

// blockPartition splits structure indices into contiguous blocks whose
// residue totals fit half the budget (so any two blocks co-reside).
func blockPartition(lengths []int, budget int) ([][]int, error) {
	half := budget / 2
	var blocks [][]int
	var cur []int
	used := 0
	for i, l := range lengths {
		if l > half {
			return nil, fmt.Errorf("core: chain %d (%d residues) exceeds half the memory budget (%d)", i, l, half)
		}
		if used+l > half && len(cur) > 0 {
			blocks = append(blocks, cur)
			cur = nil
			used = 0
		}
		cur = append(cur, i)
		used += l
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks, nil
}

// stages returns the load schedule. Without an effective memory budget
// it is the paper's: load everything once, farm every pair. Under a
// budget it is the standard out-of-core answer: for each block, load it
// and farm the pairs inside it, then load every later block in turn and
// farm the cross pairs, so every pair runs exactly once while peak
// memory stays within two blocks; the returned report carries the
// schedule's accounting.
func (p *plan) stages() ([]stage, *farm.TiledReport, error) {
	total := p.pr.Dataset.TotalResidues()
	budget := p.cfg.MemoryBudgetResidues
	if budget <= 0 || budget >= total {
		return []stage{{total, p.pr.Pairs}}, nil, nil
	}
	blocks, err := blockPartition(p.lengths, budget)
	if err != nil {
		return nil, nil, err
	}
	nb := len(blocks)
	blockOf := make([]int, len(p.lengths))
	residues := make([]int, nb)
	for b, members := range blocks {
		for _, i := range members {
			blockOf[i] = b
			residues[b] += p.lengths[i]
		}
	}
	tiles := make([][]sched.Pair, nb*nb)
	for _, pair := range p.pr.Pairs {
		bi, bj := blockOf[pair.I], blockOf[pair.J]
		if bi > bj {
			bi, bj = bj, bi
		}
		tiles[bi*nb+bj] = append(tiles[bi*nb+bj], pair)
	}
	rep := &farm.TiledReport{Blocks: nb}
	var out []stage
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			out = append(out, stage{residues[bj], tiles[bi*nb+bj]})
			rep.BlockLoads++
			rep.ReloadSeconds += float64(residues[bj]) * reloadSecondsPerResidue
		}
	}
	return out, rep, nil
}

// run executes the plan on one session per chip.
func (p *plan) run() (farm.Report, error) {
	stages, tiled, err := p.stages()
	if err != nil {
		return farm.Report{}, err
	}
	chips := max(p.cfg.Chips, 1)
	sessions := make([]*farm.Session, chips)
	var ms *farm.MultiSession
	if chips > 1 {
		ms, err = farm.NewMultiSession(farm.MultiConfig{
			Config:    p.session,
			Chips:     chips,
			Interchip: p.cfg.Interchip,
			Gather:    p.cfg.Gather,
		})
		if err != nil {
			return farm.Report{}, err
		}
		for c := range sessions {
			sessions[c] = ms.ChipSession(c)
		}
	} else if sessions[0], err = farm.NewSession(p.session); err != nil {
		return farm.Report{}, err
	}
	for _, s := range sessions {
		s.StartSlaves(p.handler)
	}

	shardTile := shardTileSize(p.tile)
	works := make([][]farm.Work, len(stages)) // [stage][chip]
	shardBytes := make([]int64, chips)
	idBase := 0
	for k, st := range stages {
		ordered, err := p.order(st.pairs)
		if err != nil {
			return farm.Report{}, err
		}
		shards, err := sched.ShardPairs(ordered, chips, shardTile, p.cost)
		if err != nil {
			return farm.Report{}, err
		}
		works[k] = make([]farm.Work, chips)
		for c, shard := range shards {
			if works[k][c], err = p.work(sessions[c], shard, idBase); err != nil {
				return farm.Report{}, err
			}
			idBase += len(shard)
			if c > 0 && len(shard) > 0 {
				shardBytes[c] = shardWireBytes(shard, p.wire.Sizes)
			}
		}
	}
	if ms != nil {
		// Validate keeps budgets single-chip, so there is one stage.
		return ms.Run(stages[0].residues, works[0], shardBytes)
	}

	rep, err := sessions[0].Run("", func(m *farm.Master) {
		for k, st := range stages {
			if tiled == nil {
				// One-time load of every structure by the master (the
				// design choice Experiment I validates).
				m.LoadResidues(st.residues)
			} else {
				m.P.Wait(float64(st.residues) * reloadSecondsPerResidue)
				m.Chip().Compute(m.P, costmodel.Counter{ResiduesLoaded: uint64(st.residues)})
			}
			m.FarmWork(works[k][0], nil)
		}
		m.Terminate()
	})
	if tiled != nil {
		// The per-stage farms run back to back; the end-to-end wall clock
		// is the meaningful makespan for the schedule.
		rep.FarmStats.MakespanSeconds = rep.TotalSeconds
		rep.Tiled = tiled
	}
	return rep, err
}
