package scc

import (
	"rckalign/internal/noc"
	"rckalign/internal/sim"
)

// Off-chip memory: the SCC's four DDR3 memory controllers (iMCs) sit at
// the mesh corners, each serving the quadrant of tiles nearest to it
// (Table I / Figure 1). Accesses cross the mesh to the controller and
// then queue at it — the controller is the contended resource that
// RCCE's off-chip shared memory (RCCE_shmalloc) and all DRAM traffic
// go through.

// MemControllerOf returns the index and coordinate of the iMC serving a
// core (the nearest controller, ties to the lowest index — the SCC's
// quadrant assignment).
func (c *Chip) MemControllerOf(core int) (int, noc.Coord) {
	c.checkCore(core)
	i := c.mcOf[core]
	return i, c.mcs[i]
}

// MemAccess moves `bytes` between a core and its memory controller
// (direction does not matter for timing): the request crosses the mesh
// to the controller, queues there, and is served at the DRAM bandwidth.
func (c *Chip) MemAccess(p *sim.Process, core, bytes int) {
	if bytes < 1 {
		bytes = 1
	}
	idx, mc := c.MemControllerOf(core)
	c.mesh.Transfer(p, c.coords[core], mc, bytes)
	service := float64(bytes)/c.cfg.MemBandwidth + c.cfg.MemLatencySeconds
	c.mcRes[idx].Use(p, service)
}
