// Package scc models Intel's Single-chip Cloud Computer: 48 P54C cores on
// 24 tiles arranged in a 6x4 mesh, with a 16 KB message-passing buffer
// (MPB) per tile and four memory controllers at the mesh corners
// (Table I of the paper). Cores are simulated processes whose compute
// time comes from the cost model; inter-core traffic crosses the noc
// mesh.
package scc

import (
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/noc"
	"rckalign/internal/sim"
)

// Config describes a chip (defaults reproduce Table I).
type Config struct {
	// TilesX x TilesY tiles, CoresPerTile cores each.
	TilesX, TilesY, CoresPerTile int
	// MPBBytesPerTile is the per-tile message passing buffer (shared by
	// the tile's cores; each core owns half).
	MPBBytesPerTile int
	// MemControllers is the number of on-die memory controllers.
	MemControllers int
	// CPU is the per-core cost profile.
	CPU costmodel.CPU
	// MemBandwidth is each iMC's DRAM bandwidth (bytes/s).
	MemBandwidth float64
	// MemLatencySeconds is the fixed DRAM access latency per request.
	MemLatencySeconds float64
	// NamePrefix is prepended to every core name ("c1." yields
	// "c1.rck00"), so the chips of a multi-chip system get distinct
	// trace tracks, report keys and per-core metric labels. Empty (the
	// default) keeps the classic single-chip names bit-identical.
	NamePrefix string
}

// DefaultConfig returns the SCC as shipped: 6x4 tiles, 2 cores/tile,
// 16 KB MPB/tile, 4 iMCs, P54C cores at 800 MHz.
func DefaultConfig() Config {
	return Config{
		TilesX:          6,
		TilesY:          4,
		CoresPerTile:    2,
		MPBBytesPerTile: 16 * 1024,
		MemControllers:  4,
		CPU:             costmodel.P54C(),
		// DDR3-800 per controller, conservative effective rate.
		MemBandwidth:      5.3e9,
		MemLatencySeconds: 70e-9,
	}
}

// NumTiles returns the tile count.
func (c Config) NumTiles() int { return c.TilesX * c.TilesY }

// NumCores returns the core count.
func (c Config) NumCores() int { return c.NumTiles() * c.CoresPerTile }

// MPBTotal returns the chip-wide MPB capacity.
func (c Config) MPBTotal() int { return c.NumTiles() * c.MPBBytesPerTile }

// MPBPerCore returns each core's share of its tile MPB (the RCCE chunk
// size for large messages).
func (c Config) MPBPerCore() int { return c.MPBBytesPerTile / c.CoresPerTile }

// CoreName returns the SCC host name of a core (rck00...rck47, behind
// the optional NamePrefix) without needing an instantiated chip; trace
// tracks and farm reports key on it.
func (c Config) CoreName(core int) string { return fmt.Sprintf("%srck%02d", c.NamePrefix, core) }

// Chip is an instantiated SCC attached to a simulation engine.
type Chip struct {
	cfg    Config
	engine *sim.Engine
	mesh   *noc.Mesh
	procs  map[int]*sim.Process
	// The iMCs' routers and service queues, and per core its tile's
	// router and the index of its iMC: fixed at New, looked up per message.
	mcs    []noc.Coord
	mcRes  []*sim.Resource
	coords []noc.Coord
	mcOf   []int
}

// New builds a chip on the given engine. Its mesh has one router per
// tile, timed as noc.DefaultConfig.
func New(e *sim.Engine, cfg Config) *Chip {
	if cfg.TilesX <= 0 || cfg.TilesY <= 0 || cfg.CoresPerTile <= 0 {
		panic("scc: invalid tile geometry")
	}
	mesh := noc.DefaultConfig()
	mesh.Width, mesh.Height = cfg.TilesX, cfg.TilesY
	c := &Chip{cfg: cfg, engine: e, mesh: noc.New(mesh), procs: map[int]*sim.Process{}}
	// The iMCs sit at the corners (fewer take a prefix); a core's is the
	// nearest, ties to the lowest index: the SCC's quadrant assignment.
	w, h := cfg.TilesX-1, cfg.TilesY-1
	c.mcs = []noc.Coord{{X: 0, Y: 0}, {X: w, Y: 0}, {X: 0, Y: h}, {X: w, Y: h}}[:min(max(cfg.MemControllers, 1), 4)]
	c.mcRes = make([]*sim.Resource, len(c.mcs))
	for i := range c.mcRes {
		c.mcRes[i] = sim.NewResource(fmt.Sprintf("imc%d", i), 1)
	}
	c.coords, c.mcOf = make([]noc.Coord, cfg.NumCores()), make([]int, cfg.NumCores())
	for core := range c.coords {
		tile := core / cfg.CoresPerTile
		pos := noc.Coord{X: tile % cfg.TilesX, Y: tile / cfg.TilesX}
		c.coords[core] = pos
		for i, mc := range c.mcs {
			if c.mesh.Hops(pos, mc) < c.mesh.Hops(pos, c.mcs[c.mcOf[core]]) {
				c.mcOf[core] = i
			}
		}
	}
	return c
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Engine returns the simulation engine.
func (c *Chip) Engine() *sim.Engine { return c.engine }

// Mesh returns the on-chip network.
func (c *Chip) Mesh() *noc.Mesh { return c.mesh }

// NumCores returns the chip's core count.
func (c *Chip) NumCores() int { return len(c.coords) }

// CoordOf returns the mesh router coordinate of a core's tile (two
// consecutive core ids share a tile, as on the SCC).
func (c *Chip) CoordOf(core int) noc.Coord {
	c.checkCore(core)
	return c.coords[core]
}

// CoreName returns the SCC host name of a core (rck00...rck47).
func (c *Chip) CoreName(core int) string {
	c.checkCore(core)
	return c.cfg.CoreName(core)
}

func (c *Chip) checkCore(core int) {
	if uint(core) >= uint(len(c.coords)) {
		panic(fmt.Sprintf("scc: core %d out of range [0,%d)", core, len(c.coords)))
	}
}

// ComputeSeconds converts an operation count to seconds on one core.
func (c *Chip) ComputeSeconds(ops costmodel.Counter) float64 {
	return c.cfg.CPU.Seconds(ops)
}

// Compute charges the operation count as simulated busy time in process
// p (which represents code running on one core).
func (c *Chip) Compute(p *sim.Process, ops costmodel.Counter) {
	p.Wait(c.ComputeSeconds(ops))
}

// SpawnCore starts a simulated-core process named after the core id.
func (c *Chip) SpawnCore(core int, body func(p *sim.Process)) *sim.Process {
	c.checkCore(core)
	p := c.engine.Spawn(c.CoreName(core), body)
	c.procs[core] = p
	return p
}

// Proc returns the process most recently spawned for a core (nil if the
// core was never spawned). Fault injectors use it to target kills and
// stalls at core granularity.
func (c *Chip) Proc(core int) *sim.Process {
	c.checkCore(core)
	return c.procs[core]
}

// Transfer moves bytes between two cores over the mesh from within
// process p. Same-tile transfers cross only the local MIU.
func (c *Chip) Transfer(p *sim.Process, from, to, bytes int) {
	c.mesh.Transfer(p, c.CoordOf(from), c.CoordOf(to), bytes)
}
