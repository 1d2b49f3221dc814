// Package costmodel converts instrumented operation counts from the PSC
// algorithms into execution time on a modelled CPU.
//
// This is how the reproduction replaces the paper's hardware: rckAlign jobs
// run the real TM-align code, but the *time* each job is charged on a
// simulated SCC core (Intel P54C @ 800 MHz) or on the AMD baseline host is
// computed from the work the algorithm actually performed (DP cells,
// superpositions, score evaluations, ...), scaled by per-operation cycle
// costs characteristic of each CPU. Job-to-job variance — which drives the
// paper's speedup shapes — therefore comes from the real algorithm.
package costmodel

import "fmt"

// Counter accumulates abstract operation counts. The zero value is ready
// to use. All methods are nil-safe so uninstrumented call paths can pass a
// nil *Counter at no cost.
type Counter struct {
	// DPCells counts dynamic-programming matrix cells evaluated.
	DPCells uint64
	// KabschCalls counts optimal-superposition solves.
	KabschCalls uint64
	// KabschPoints counts points accumulated across all superpositions.
	KabschPoints uint64
	// ScoreEvals counts per-residue distance/score evaluations.
	ScoreEvals uint64
	// RotationOps counts points mapped through a rigid transform.
	RotationOps uint64
	// SSAssign counts residues classified by secondary structure.
	SSAssign uint64
	// ResiduesLoaded counts residues parsed or deserialized.
	ResiduesLoaded uint64
}

// AddDP records n dynamic-programming cells.
func (c *Counter) AddDP(n int) {
	if c != nil {
		c.DPCells += uint64(n)
	}
}

// AddKabsch records one superposition over n points.
func (c *Counter) AddKabsch(n int) {
	if c != nil {
		c.KabschCalls++
		c.KabschPoints += uint64(n)
	}
}

// AddScore records n score evaluations.
func (c *Counter) AddScore(n int) {
	if c != nil {
		c.ScoreEvals += uint64(n)
	}
}

// AddRotate records n points transformed.
func (c *Counter) AddRotate(n int) {
	if c != nil {
		c.RotationOps += uint64(n)
	}
}

// AddSS records n residues classified.
func (c *Counter) AddSS(n int) {
	if c != nil {
		c.SSAssign += uint64(n)
	}
}

// Add accumulates another counter into c.
func (c *Counter) Add(o Counter) {
	if c == nil {
		return
	}
	c.DPCells += o.DPCells
	c.KabschCalls += o.KabschCalls
	c.KabschPoints += o.KabschPoints
	c.ScoreEvals += o.ScoreEvals
	c.RotationOps += o.RotationOps
	c.SSAssign += o.SSAssign
	c.ResiduesLoaded += o.ResiduesLoaded
}

// Sub returns the work charged to c since the snapshot o was taken.
func (c Counter) Sub(o Counter) Counter {
	return Counter{
		DPCells:        c.DPCells - o.DPCells,
		KabschCalls:    c.KabschCalls - o.KabschCalls,
		KabschPoints:   c.KabschPoints - o.KabschPoints,
		ScoreEvals:     c.ScoreEvals - o.ScoreEvals,
		RotationOps:    c.RotationOps - o.RotationOps,
		SSAssign:       c.SSAssign - o.SSAssign,
		ResiduesLoaded: c.ResiduesLoaded - o.ResiduesLoaded,
	}
}

// String summarises the counter.
func (c Counter) String() string {
	return fmt.Sprintf("dp=%d kabsch=%d/%dpts score=%d rot=%d ss=%d load=%d",
		c.DPCells, c.KabschCalls, c.KabschPoints, c.ScoreEvals, c.RotationOps,
		c.SSAssign, c.ResiduesLoaded)
}

// Scaled returns a copy of c with every count multiplied by f (rounded
// down, minimum 0). Used to model intra-job parallel speedup: a job
// executed by t cooperating cores charges each core Scaled(1/(t*eff))
// of the work.
func (c Counter) Scaled(f float64) Counter {
	if f < 0 {
		f = 0
	}
	scale := func(v uint64) uint64 { return uint64(float64(v) * f) }
	return Counter{
		DPCells:        scale(c.DPCells),
		KabschCalls:    scale(c.KabschCalls),
		KabschPoints:   scale(c.KabschPoints),
		ScoreEvals:     scale(c.ScoreEvals),
		RotationOps:    scale(c.RotationOps),
		SSAssign:       scale(c.SSAssign),
		ResiduesLoaded: scale(c.ResiduesLoaded),
	}
}

// CPU models per-operation costs of one processor core.
type CPU struct {
	// Name identifies the profile in reports.
	Name string
	// FreqHz is the core clock.
	FreqHz float64
	// Per-operation cycle costs.
	CyclesPerDPCell      float64
	CyclesKabschFixed    float64 // per superposition solve (eigen problem)
	CyclesPerKabschPoint float64 // covariance accumulation per point
	CyclesPerScoreEval   float64
	CyclesPerRotation    float64
	CyclesPerSSResidue   float64
	CyclesPerLoadResidue float64
	// Scale is a final multiplier used to calibrate absolute totals
	// against the paper's measurements (compiler, memory system and other
	// unmodelled effects: the original is f2c-translated Fortran compiled
	// with gcc on in-order cores). 1.0 means "raw op model". The shipped
	// profiles are calibrated once against the paper's Table III CK34
	// row; see EXPERIMENTS.md.
	Scale float64
}

// Cycles converts an operation count into core cycles.
func (p CPU) Cycles(c Counter) float64 {
	cy := float64(c.DPCells)*p.CyclesPerDPCell +
		float64(c.KabschCalls)*p.CyclesKabschFixed +
		float64(c.KabschPoints)*p.CyclesPerKabschPoint +
		float64(c.ScoreEvals)*p.CyclesPerScoreEval +
		float64(c.RotationOps)*p.CyclesPerRotation +
		float64(c.SSAssign)*p.CyclesPerSSResidue +
		float64(c.ResiduesLoaded)*p.CyclesPerLoadResidue
	return cy * p.Scale
}

// Seconds converts an operation count into seconds on this CPU.
func (p CPU) Seconds(c Counter) float64 { return p.Cycles(c) / p.FreqHz }

// P54C returns the profile of one SCC core: an in-order, non-superscalar
// (for FP purposes) Intel P54C Pentium at 800 MHz with small caches.
// Per-op cycle costs reflect unpipelined double-precision arithmetic and
// frequent cache misses on DP matrices. Scale calibrates the CK34/RS119
// serial totals near the paper's Table III (see EXPERIMENTS.md).
func P54C() CPU {
	return CPU{
		Name:                 "Intel P54C Pentium 800 MHz",
		FreqHz:               800e6,
		CyclesPerDPCell:      52,
		CyclesKabschFixed:    9000,
		CyclesPerKabschPoint: 95,
		CyclesPerScoreEval:   46,
		CyclesPerRotation:    60,
		CyclesPerSSResidue:   220,
		CyclesPerLoadResidue: 400,
		Scale:                10.34,
	}
}

// AMD24 returns the profile of the AMD Athlon II X2 250 @ 2.4 GHz baseline
// host (one core; the paper's TM-align is serial). The per-cycle advantage
// (wider FP units, large caches) appears as lower per-op cycle costs; the
// gap grows with working-set size, which the paper's Table III shows as a
// 5.0x (CK34) vs 3.9x (RS119) end-to-end ratio — the Pentium's relative
// penalty is partly cache-resident for small proteins.
func AMD24() CPU {
	return CPU{
		Name:                 "AMD Athlon II X2 250 2.4 GHz",
		FreqHz:               2400e6,
		CyclesPerDPCell:      31,
		CyclesKabschFixed:    5200,
		CyclesPerKabschPoint: 55,
		CyclesPerScoreEval:   27,
		CyclesPerRotation:    35,
		CyclesPerSSResidue:   130,
		CyclesPerLoadResidue: 240,
		Scale:                10.57,
	}
}

// Slave-side structure-cache capacity model. An SCC core owns a private
// DRAM partition (the paper's boards carry 32 MB per core); a slave can
// dedicate part of it to keeping received structures resident so the
// master need not re-ship them with every pair.

// DefaultCacheBudgetBytes is the per-core memory a slave dedicates to
// cached structures by default: 8 MiB, a quarter of the 32 MB private
// DRAM partition, leaving the rest for the TM-align working set (DP
// matrices, alignments) and the runtime.
const DefaultCacheBudgetBytes = 8 << 20

// StructResidentBytes models the memory one cached structure occupies
// on a slave: the decoded CA coordinates (3 float64), per-residue
// metadata, and index bookkeeping.
func StructResidentBytes(residues int) int { return 64 + 32*residues }

// CacheCapacityStructs converts a byte budget into an LRU capacity in
// structures, sized by the dataset's mean chain length. The floor is 2:
// a pair's two structures must fit or caching is meaningless.
func CacheCapacityStructs(budgetBytes, meanResidues int) int {
	if meanResidues < 1 {
		meanResidues = 1
	}
	n := budgetBytes / StructResidentBytes(meanResidues)
	if n < 2 {
		n = 2
	}
	return n
}
