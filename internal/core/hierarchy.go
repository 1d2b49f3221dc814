package core

import (
	"rckalign/internal/farm"
	"rckalign/internal/rckskel"
	"rckalign/internal/sim"
)

// runHierarchical implements the paper's proposed extension for master
// scalability: a root master on cfg.MasterCore forwards job partitions
// to cfg.Hierarchy sub-masters, each of which FARMs its share to its own
// slave partition. The root then gathers per-partition aggregates. This
// removes the single master from every job's critical path at the cost
// of dedicating sub-master cores.
func (p *plan) runHierarchical() (farm.Report, error) {
	// The session places h+slaves cores in id order (root skipped): the
	// first h become sub-masters, the rest are dealt round-robin into the
	// h slave partitions.
	h := p.subMasters
	s, err := farm.NewSession(p.session)
	if err != nil {
		return farm.Report{}, err
	}
	cores := s.Placement().Cores
	subMasters := cores[:h]
	slavesOf := farm.PartitionRoundRobin(cores[h:], h)

	ordered, err := p.order(p.pr.Pairs)
	if err != nil {
		return farm.Report{}, err
	}
	all, err := p.work(s, ordered, 0)
	if err != nil {
		return farm.Report{}, err
	}

	// Round-robin partition of the job list over sub-masters.
	jobsOf := make([][]rckskel.Job, h)
	for k, j := range all.Jobs {
		jobsOf[k%h] = append(jobsOf[k%h], j)
	}

	type partitionDone struct {
		stats rckskel.Stats
	}

	teams := make([]*rckskel.Team, h)
	for i := 0; i < h; i++ {
		teams[i] = s.NewTeam(subMasters[i], slavesOf[i])
		teams[i].StartSlaves(p.handler)
	}

	rt := s.Runtime()
	root := p.cfg.MasterCore
	// Sub-master processes: receive their job batch from the root, farm
	// it, report completion.
	for i := 0; i < h; i++ {
		i := i
		rt.Chip.SpawnCore(subMasters[i], func(sp *sim.Process) {
			m := rt.Comm.Recv(sp, root, subMasters[i])
			jobs := m.Payload.([]rckskel.Job)
			stats, _ := teams[i].FARM(sp, [][]rckskel.Job{jobs}, nil, rckskel.FTConfig{}, s.Collect)
			teams[i].Terminate(sp)
			rt.Comm.Send(sp, subMasters[i], root, 64, partitionDone{stats: stats})
		})
	}

	rep, err := s.Run("", func(m *farm.Master) {
		m.LoadResidues(p.pr.Dataset.TotalResidues())
		// Forward each partition's structures+jobs descriptor. The data
		// volume is the same structure bytes the flat master would send,
		// but it moves once per partition, off the per-job critical path.
		for i := 0; i < h; i++ {
			bytes := 0
			for _, j := range jobsOf[i] {
				bytes += j.Bytes
			}
			m.Comm().Send(m.P, root, subMasters[i], bytes, jobsOf[i])
		}
		for i := 0; i < h; i++ {
			msg := m.Comm().Recv(m.P, subMasters[i], root)
			done := msg.Payload.(partitionDone)
			// The sub-masters' farms overlap in time, so their makespans
			// do not sum; the root's wall clock below is authoritative.
			st := done.stats
			st.MakespanSeconds = 0
			m.MergeStats(st)
		}
	})
	rep.FarmStats.MakespanSeconds = rep.TotalSeconds - rep.LoadSeconds
	return rep, err
}
