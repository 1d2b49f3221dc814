package scc

import (
	"fmt"

	"rckalign/internal/noc"
	"rckalign/internal/sim"
)

// Off-chip memory: the SCC's four DDR3 memory controllers (iMCs) sit at
// the mesh corners, each serving the quadrant of tiles nearest to it
// (Table I / Figure 1). Accesses cross the mesh to the controller and
// then queue at it — the controller is the contended resource that
// RCCE's off-chip shared memory (RCCE_shmalloc) and all DRAM traffic
// go through.

// memControllers returns the router coordinates hosting the iMCs (the
// four corner positions for the standard 4-controller chip; fewer
// controllers take a prefix of the corners).
func (c *Chip) memControllers() []noc.Coord {
	w, h := c.cfg.TilesX-1, c.cfg.TilesY-1
	corners := []noc.Coord{{X: 0, Y: 0}, {X: w, Y: 0}, {X: 0, Y: h}, {X: w, Y: h}}
	n := c.cfg.MemControllers
	if n < 1 {
		n = 1
	}
	if n > len(corners) {
		n = len(corners)
	}
	return corners[:n]
}

// MemControllerOf returns the index and coordinate of the iMC serving a
// core (the nearest controller, ties to the lowest index — the SCC's
// quadrant assignment).
func (c *Chip) MemControllerOf(core int) (int, noc.Coord) {
	pos := c.CoordOf(core)
	mcs := c.memControllers()
	best, bestHops := 0, 1<<30
	for i, mc := range mcs {
		if h := c.mesh.Hops(pos, mc); h < bestHops {
			best, bestHops = i, h
		}
	}
	return best, mcs[best]
}

// ensureMCs lazily builds the controller resources.
func (c *Chip) ensureMCs() {
	if c.mcRes != nil {
		return
	}
	mcs := c.memControllers()
	c.mcRes = make([]*sim.Resource, len(mcs))
	for i := range c.mcRes {
		c.mcRes[i] = sim.NewResource(fmt.Sprintf("imc%d", i), 1)
	}
}

// MemAccess moves `bytes` between a core and its memory controller
// (direction does not matter for timing): the request crosses the mesh
// to the controller, queues there, and is served at the DRAM bandwidth.
func (c *Chip) MemAccess(p *sim.Process, core, bytes int) {
	if bytes < 1 {
		bytes = 1
	}
	c.ensureMCs()
	idx, mc := c.MemControllerOf(core)
	c.mesh.Transfer(p, c.CoordOf(core), mc, bytes)
	service := float64(bytes)/c.cfg.MemBandwidth + c.cfg.MemLatencySeconds
	c.mcRes[idx].Use(p, service)
}
