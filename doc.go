// Package rckalign reproduces "Accelerating all-to-all protein structures
// comparison with TMalign using a NoC many-cores processor architecture"
// (Sharma, Papanikolaou, Manolakos; IPDPSW 2013).
//
// The implementation lives in internal packages (see DESIGN.md for the
// full inventory):
//
//   - internal/tmalign (+ geom, pdb, ss, seqalign, tmscore): the TM-align
//     protein structure comparison algorithm, built from scratch;
//   - internal/sim, noc, scc, rcce: a discrete-event model of the Intel
//     Single-chip Cloud Computer (48 P54C cores on a 6x4 mesh NoC) with an
//     RCCE-style message-passing layer;
//   - internal/rckskel: the paper's algorithmic skeleton library (SEQ,
//     PAR, COLLECT, FARM);
//   - internal/core: rckAlign, the master-slaves all-vs-all comparison
//     application;
//   - internal/dist, mcpsc, sched, experiments: the distributed baseline,
//     the multi-criteria extension (mcpsc.Compute one score table,
//     mcpsc.Run replays it under any core partition), scheduling policies
//     and the drivers that regenerate every table and figure of the
//     paper's evaluation.
//
// Entry points: cmd/tmalign (pairwise CLI), cmd/rckalign (all-vs-all on
// the simulated SCC), cmd/benchtables (regenerates Tables I-V and
// Figures 5-6), cmd/genpdb (writes the synthetic datasets), and the
// runnable walkthroughs under examples/.
package rckalign
