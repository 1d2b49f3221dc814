// Kernel error boundary: the numeric kernels (geom, tmscore, seqalign)
// panic on precondition violations — the right behaviour on the
// simulator's hot path, where such a violation is a scheduler bug. A
// long-lived service cannot crash on one degenerate upload, so the
// kernels panic with errors wrapping typed sentinels, and TryCompare is
// the recovery boundary that turns exactly those panics back into
// ordinary errors while re-raising anything else.
package tmalign

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"rckalign/internal/geom"
	"rckalign/internal/pdb"
	"rckalign/internal/seqalign"
	"rckalign/internal/tmscore"
)

// ErrDegenerateStructure reports a structure the kernel cannot align
// meaningfully: fewer than 3 CA residues, or a coordinate that is not a
// number a PDB file can hold.
var ErrDegenerateStructure = errors.New("tmalign: degenerate structure")

// maxCoordinate is the largest CA coordinate magnitude ValidateStructure
// admits: the widest value of a PDB coordinate column (%8.3f).
const maxCoordinate = 9999.999

// kernelSentinels are the typed precondition errors the kernels panic
// with. Anything not wrapping one of these is a genuine bug and must
// keep crashing.
var kernelSentinels = []error{
	ErrDegenerateStructure,
	geom.ErrPointMismatch,
	geom.ErrNoPoints,
	tmscore.ErrAlignedLength,
	seqalign.ErrInvmapLength,
}

// IsKernelError reports whether err wraps one of the kernel's typed
// input-validation sentinels — the class of failures a server maps to
// an unprocessable-input response rather than a crash.
func IsKernelError(err error) bool {
	for _, s := range kernelSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// ValidateStructure rejects inputs the kernel cannot align: fewer than
// 3 CA residues, or any CA coordinate that is NaN, infinite or larger in
// magnitude than maxCoordinate (the PDB parser reads "NaN" and "1e200"
// from a coordinate column). Past the bound, squared distances overflow
// or swamp the score's cutoffs. Inside it, a scoring pass's cutoff
// relaxation costs a few passes over its pairs however far apart they
// are (TestTryCompareFarApartCloudsFinishes). The returned error wraps
// ErrDegenerateStructure.
func ValidateStructure(st *pdb.Structure) error { return validate(st.ID, st.CAs()) }

func validate(id string, cas []geom.Vec3) error {
	if len(cas) < 3 {
		return fmt.Errorf("%w: %q has %d CA residues, need >= 3", ErrDegenerateStructure, id, len(cas))
	}
	for i, v := range cas {
		for _, c := range v {
			if !(math.Abs(c) <= maxCoordinate) {
				return fmt.Errorf("%w: %q has CA coordinate %g at residue %d, outside ±%g", ErrDegenerateStructure, id, c, i, maxCoordinate)
			}
		}
	}
	return nil
}

// TryCompare is ComparePrepared behind the kernel error boundary: it
// returns either structure's verdict from Prepare (ErrDegenerateStructure)
// and turns kernel-sentinel panics into errors. Panics that do not wrap a
// kernel sentinel — genuine bugs — propagate unchanged.
func TryCompare(a, b *Prepared, opt Options) (r *Result, err error) {
	if err := cmp.Or(a.err, b.err); err != nil {
		return nil, err
	}
	defer recoverKernel(a.ID, b.ID, &err)
	return ComparePrepared(a, b, opt), nil
}

// recoverKernel converts a kernel-sentinel panic into *err; anything
// else propagates unchanged.
func recoverKernel(id1, id2 string, err *error) {
	if rec := recover(); rec != nil {
		if e, ok := rec.(error); ok && IsKernelError(e) {
			*err = fmt.Errorf("tmalign: %s vs %s: %w", id1, id2, e)
			return
		}
		panic(rec)
	}
}
