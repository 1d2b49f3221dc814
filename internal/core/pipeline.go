// The run pipeline: plan → stage → shard → farm → report.
//
// Every run builds one plan from (pair results, config): chain sizes,
// ordering and the replay handler are plan properties, so they apply
// identically wherever the jobs end up (the farm times the jobs: it
// scales their ops by the worker's threads and arms the fault deadline).
// The plan's pair list is cut into stages (one, unless a memory budget
// forces a block load schedule), each stage's ordered pairs into shards
// (one per chip), and each shard becomes a farm.Work farmed by that
// chip's master on one farm board. The flat single-master run of the
// paper is the one-stage, one-shard, one-chip case by construction.
package core

import (
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
)

// plan is everything about a run that does not depend on where a job
// executes.
type plan struct {
	pr *PairResults
	// cfg is the run's configuration with core's sentinel (cache
	// capacity) resolved: its farm.Config is the board's.
	cfg     Config
	slaves  int
	lengths []int
	cost    func(sched.Pair) float64
	// sizes[i] is structure i's coordinate wire size (StructBytes).
	sizes []int
	// blocked regroups the ordered pairs into sched.DefaultTile blocks;
	// it is on whenever the wire model is (cache, batching or affinity).
	blocked bool
	handler rckskel.Handler
}

func newPlan(pr *PairResults, slaves int, cfg Config) *plan {
	p := &plan{pr: pr, cfg: cfg, slaves: slaves, lengths: pr.lengths()}
	p.cost = sched.LengthProductCost(p.lengths)
	p.sizes = make([]int, len(p.lengths))
	total := 0
	for i, l := range p.lengths {
		p.sizes[i] = StructBytes(l)
		total += l
	}

	if cfg.CacheStructs < 0 {
		mean := 0
		if len(p.lengths) > 0 {
			mean = total / len(p.lengths)
		}
		p.cfg.CacheStructs = costmodel.CacheCapacityStructs(costmodel.DefaultCacheBudgetBytes, mean)
	}
	p.blocked = p.cfg.CacheStructs > 0 || cfg.Batch > 1 || cfg.Affinity
	p.handler = func(job rckskel.Job) (any, costmodel.Counter, int) {
		res := pr.Get(*job.Payload.(*sched.Pair))
		return res, res.Ops, ResultBytes(res.Len2)
	}
	return p
}

// order applies the ordering policy and then the blocked tiling.
func (p *plan) order(pairs []sched.Pair) ([]sched.Pair, error) {
	ordered, err := sched.Apply(pairs, p.cfg.Order, p.cost, p.cfg.OrderSeed)
	if err != nil {
		return nil, err
	}
	if p.blocked {
		ordered = sched.Blocked(ordered, sched.DefaultTile)
	}
	return ordered, nil
}

// work turns an ordered pair list into the Work chip c's master farms:
// a single job queue shared by every worker, or under Affinity one queue
// per placed worker with whole tile blocks dealt heaviest-first. Jobs are
// numbered from idBase in queue order, so IDs stay unique across queues,
// shards and stages; the farm gives them the session's wire shape.
func (p *plan) work(s *farm.Session, c int, pairs []sched.Pair, idBase int) (farm.Work, error) {
	if len(pairs) == 0 {
		return farm.Work{}, nil
	}
	lists := [][]sched.Pair{pairs}
	if p.cfg.Affinity {
		lists = sched.AffinityAssign(pairs, len(s.Placement().WorkerLeads), sched.DefaultTile, p.cost)
	}
	queues := make([][]rckskel.Job, len(lists))
	for q, ps := range lists {
		var err error
		if queues[q], err = s.PrepareJobs(c, ps, idBase, p.sizes); err != nil {
			return farm.Work{}, err
		}
		idBase += len(ps)
	}
	return farm.Work{Queues: queues}, nil
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

// run executes the plan on one board: the root master loads, scatters
// the remote shards (a no-op on one chip) and farms its own, stage by
// stage. The board is built first, so a Config the farm rejects fails
// with the farm's typed error before the budget schedules anything.
func (p *plan) run() (farm.Report, error) {
	s, err := farm.New(p.cfg.Config, p.slaves)
	if err != nil {
		return farm.Report{}, err
	}
	stages, tiled, err := p.stages()
	if err != nil {
		return farm.Report{}, err
	}
	s.StartSlaves(p.handler)

	chips := max(p.cfg.Chips, 1)
	works := make([][]farm.Work, len(stages)) // [stage][chip]
	idBase := 0
	for k, st := range stages {
		ordered, err := p.order(st.pairs)
		if err != nil {
			return farm.Report{}, err
		}
		shards, err := sched.ShardPairs(ordered, chips, sched.DefaultTile, p.cost)
		if err != nil {
			return farm.Report{}, err
		}
		works[k] = make([]farm.Work, chips)
		for c, shard := range shards {
			if works[k][c], err = p.work(s, c, shard, idBase); err != nil {
				return farm.Report{}, err
			}
			idBase += len(shard)
		}
	}

	rep, err := s.Run(func(m *farm.Master) {
		for k, st := range stages {
			if tiled == nil {
				// One-time load of every structure by the master (the
				// design choice Experiment I validates).
				m.LoadResidues(st.residues)
			} else {
				m.P.Wait(float64(st.residues) * reloadSecondsPerResidue)
				m.Chip().Compute(m.P, costmodel.Counter{ResiduesLoaded: uint64(st.residues)})
			}
			m.Scatter(works[k])
			m.FarmWork(works[k][0], nil)
		}
		m.Terminate()
	})
	rep.Tiled = tiled
	return rep, err
}
