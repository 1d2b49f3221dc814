package scc

import (
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/noc"
	"rckalign/internal/sim"
)

// TestTableI asserts the chip configuration the paper lists in Table I.
func TestTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumCores() != 48 {
		t.Errorf("cores = %d, want 48", cfg.NumCores())
	}
	if cfg.NumTiles() != 24 {
		t.Errorf("tiles = %d, want 24", cfg.NumTiles())
	}
	if cfg.TilesX != 6 || cfg.TilesY != 4 {
		t.Errorf("grid = %dx%d, want 6x4", cfg.TilesX, cfg.TilesY)
	}
	if cfg.CoresPerTile != 2 {
		t.Errorf("cores/tile = %d, want 2", cfg.CoresPerTile)
	}
	if cfg.MPBBytesPerTile != 16*1024 {
		t.Errorf("MPB/tile = %d, want 16K", cfg.MPBBytesPerTile)
	}
	if cfg.MPBTotal() != 384*1024 {
		t.Errorf("MPB total = %d, want 384K", cfg.MPBTotal())
	}
	if cfg.MPBPerCore() != 8*1024 {
		t.Errorf("MPB/core = %d, want 8K", cfg.MPBPerCore())
	}
	if cfg.MemControllers != 4 {
		t.Errorf("iMCs = %d, want 4", cfg.MemControllers)
	}
	if cfg.CPU.FreqHz != 800e6 {
		t.Errorf("core clock = %v, want 800 MHz", cfg.CPU.FreqHz)
	}
}

func TestTileAndCoordMapping(t *testing.T) {
	chip := New(sim.NewEngine(), DefaultConfig())
	if chip.CoordOf(0) != chip.CoordOf(1) {
		t.Error("cores 0,1 must share tile 0")
	}
	if got := chip.CoordOf(2); got != (noc.Coord{X: 1, Y: 0}) {
		t.Errorf("core 2 must be tile 1, at %v", got)
	}
	if got := chip.CoordOf(13); got != (noc.Coord{X: 0, Y: 1}) {
		t.Errorf("core 13 must be tile 6, at %v", got)
	}
	if got := chip.CoordOf(0); got != (noc.Coord{X: 0, Y: 0}) {
		t.Errorf("coord of core 0 = %v", got)
	}
	if got := chip.CoordOf(47); got != (noc.Coord{X: 5, Y: 3}) {
		t.Errorf("coord of core 47 = %v", got)
	}
	// Coordinates must be in mesh bounds for all cores.
	for core := 0; core < chip.NumCores(); core++ {
		if !chip.Mesh().InBounds(chip.CoordOf(core)) {
			t.Fatalf("core %d coordinate out of bounds", core)
		}
	}
}

func TestCoreNames(t *testing.T) {
	chip := New(sim.NewEngine(), DefaultConfig())
	if chip.CoreName(0) != "rck00" || chip.CoreName(47) != "rck47" {
		t.Errorf("names: %s, %s", chip.CoreName(0), chip.CoreName(47))
	}
}

func TestCoreRangePanics(t *testing.T) {
	chip := New(sim.NewEngine(), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for core 48")
		}
	}()
	chip.CoordOf(48)
}

func TestComputeCharges(t *testing.T) {
	e := sim.NewEngine()
	chip := New(e, DefaultConfig())
	ops := costmodel.Counter{DPCells: 1_000_000}
	want := chip.Config().CPU.Seconds(ops)
	if want <= 0 {
		t.Fatal("zero compute time")
	}
	var at float64
	chip.SpawnCore(3, func(p *sim.Process) {
		chip.Compute(p, ops)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != want {
		t.Errorf("compute took %v, want %v", at, want)
	}
}

func TestTransferBetweenCores(t *testing.T) {
	e := sim.NewEngine()
	chip := New(e, DefaultConfig())
	var sameTile, farAway float64
	chip.SpawnCore(0, func(p *sim.Process) {
		start := p.Now()
		chip.Transfer(p, 0, 1, 8192) // same tile
		sameTile = p.Now() - start
		start = p.Now()
		chip.Transfer(p, 0, 47, 8192) // corner to corner
		farAway = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sameTile <= 0 || farAway <= 0 {
		t.Fatal("transfers consumed no time")
	}
	if farAway <= sameTile {
		t.Errorf("cross-chip (%v) should cost more than same-tile (%v)", farAway, sameTile)
	}
}

func TestMeshGeometryFollowsTiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TilesX, cfg.TilesY = 3, 2
	chip := New(sim.NewEngine(), cfg)
	if got := chip.Mesh().Config(); got.Width != 3 || got.Height != 2 {
		t.Errorf("mesh = %dx%d, want the 3x2 tile grid", got.Width, got.Height)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(sim.NewEngine(), Config{TilesX: 0, TilesY: 4, CoresPerTile: 2})
}

func TestMemControllerQuadrants(t *testing.T) {
	chip := New(sim.NewEngine(), DefaultConfig())
	// Core 0 (tile 0,0) -> controller at (0,0); core 47 (tile 5,3) ->
	// controller at (5,3).
	if i, mc := chip.MemControllerOf(0); i != 0 || mc != (noc.Coord{X: 0, Y: 0}) {
		t.Errorf("core 0 -> iMC %d at %v", i, mc)
	}
	if _, mc := chip.MemControllerOf(47); mc != (noc.Coord{X: 5, Y: 3}) {
		t.Errorf("core 47 -> iMC at %v", mc)
	}
	// Every core maps to some controller in bounds.
	for core := 0; core < chip.NumCores(); core++ {
		i, mc := chip.MemControllerOf(core)
		if i < 0 || i >= 4 || !chip.Mesh().InBounds(mc) {
			t.Fatalf("core %d -> iMC %d at %v", core, i, mc)
		}
	}
}

func TestMemAccessTakesTimeAndScales(t *testing.T) {
	e := sim.NewEngine()
	chip := New(e, DefaultConfig())
	var small, big float64
	chip.SpawnCore(0, func(p *sim.Process) {
		start := p.Now()
		chip.MemAccess(p, 0, 64)
		small = p.Now() - start
		start = p.Now()
		chip.MemAccess(p, 0, 1<<20)
		big = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if small <= 0 || big <= small {
		t.Errorf("mem access times: small=%v big=%v", small, big)
	}
}

func TestMemControllerContention(t *testing.T) {
	// Four cores of the same quadrant hammering one iMC must serialise;
	// cores spread across quadrants go to different controllers.
	run := func(cores []int) float64 {
		e := sim.NewEngine()
		chip := New(e, DefaultConfig())
		var last float64
		for _, core := range cores {
			core := core
			chip.SpawnCore(core, func(p *sim.Process) {
				chip.MemAccess(p, core, 8<<20)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	sameQuadrant := run([]int{0, 1, 2, 3}) // all near (0,0)
	spread := run([]int{0, 10, 36, 46})    // one per quadrant
	if sameQuadrant <= spread*1.5 {
		t.Errorf("same-quadrant (%v) should be much slower than spread (%v)", sameQuadrant, spread)
	}
}
