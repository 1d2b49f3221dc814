#include "textflag.h"

// Two TM-score terms per iteration, one per SSE2 lane. Each packed op is
// the scalar op of the Go bodies in score.go in the same order, and IEEE
// packed and scalar arithmetic round alike, so every lane is bit-identical
// to the Go body. A single element (an odd tail, a lone DP cell) takes the
// same packed ops with a don't-care second lane that is never stored.

// SQDIST sets X0 = (dx*dx + dy*dy) + dz*dz lane-wise from the differences
// dx, dy, dz in X0, X1 and X2.
#define SQDIST \
	MULPD X0, X0; \
	MULPD X1, X1; \
	ADDPD X1, X0; \
	MULPD X2, X2; \
	ADDPD X2, X0

// TERM sets X3 = d02 / (X0 + d02) lane-wise, one divide per lane, with
// d02 in both lanes of X11. X0 is clobbered.
#define TERM \
	ADDPD X11, X0; \
	MOVAPD X11, X3; \
	DIVPD X0, X3

// func scoreRow(dst, yx, yy, yz []float64, px, py, pz, d02 float64)
TEXT ·scoreRow(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ yx_base+24(FP), R8
	MOVQ yy_base+48(FP), R9
	MOVQ yz_base+72(FP), R10
	MOVSD px+96(FP), X8
	UNPCKLPD X8, X8
	MOVSD py+104(FP), X9
	UNPCKLPD X9, X9
	MOVSD pz+112(FP), X10
	UNPCKLPD X10, X10
	MOVSD d02+120(FP), X11
	UNPCKLPD X11, X11
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-2, DX

rowpair:
	CMPQ AX, DX
	JAE rowtail
	MOVAPD X8, X0
	MOVUPD (R8)(AX*8), X3
	SUBPD X3, X0 // dx = px - yx[j]
	MOVAPD X9, X1
	MOVUPD (R9)(AX*8), X3
	SUBPD X3, X1
	MOVAPD X10, X2
	MOVUPD (R10)(AX*8), X3
	SUBPD X3, X2
	SQDIST
	TERM
	MOVUPD X3, (DI)(AX*8)
	ADDQ $2, AX
	JMP rowpair

rowtail:
	CMPQ AX, CX
	JAE rowdone
	MOVAPD X8, X0
	MOVSD (R8)(AX*8), X3
	SUBPD X3, X0
	MOVAPD X9, X1
	MOVSD (R9)(AX*8), X3
	SUBPD X3, X1
	MOVAPD X10, X2
	MOVSD (R10)(AX*8), X3
	SUBPD X3, X2
	SQDIST
	TERM
	MOVSD X3, (DI)(AX*8)

rowdone:
	RET

// func scoreSum(dis2 []float64, a, b []Vec3, d02, cut2 float64, mask bool) float64
TEXT ·scoreSum(SB), NOSPLIT, $0-104
	MOVQ dis2_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), BX
	MOVSD d02+72(FP), X11
	UNPCKLPD X11, X11
	MOVSD cut2+80(FP), X13
	UNPCKLPD X13, X13

	// X14 is OR-ed into the cut2 comparison: all ones adds every term,
	// zero adds those with dis2 <= cut2. A dropped term is ANDed to +0,
	// and adding +0 leaves the sum's bits alone: the sum starts at +0 and
	// so never becomes -0.
	PCMPEQL X14, X14
	MOVBLZX mask+88(FP), AX
	TESTQ AX, AX
	JEQ summed
	XORPD X14, X14

summed:
	XORPD X7, X7 // sum
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-2, DX

sumpair:
	CMPQ AX, DX
	JAE sumtail
	MOVSD 0(SI), X0 // lane 0 is pair i, lane 1 pair i+1 (Vec3 is 24 bytes)
	MOVHPD 24(SI), X0
	MOVSD 0(BX), X3
	MOVHPD 24(BX), X3
	SUBPD X3, X0 // dx = a[0] - b[0]
	MOVSD 8(SI), X1
	MOVHPD 32(SI), X1
	MOVSD 8(BX), X3
	MOVHPD 32(BX), X3
	SUBPD X3, X1
	MOVSD 16(SI), X2
	MOVHPD 40(SI), X2
	MOVSD 16(BX), X3
	MOVHPD 40(BX), X3
	SUBPD X3, X2
	SQDIST
	MOVUPD X0, (DI)(AX*8)
	MOVAPD X0, X4
	CMPPD X13, X4, $2 // di <= cut2 (false for NaN)
	ORPD X14, X4
	TERM
	ANDPD X4, X3
	ADDSD X3, X7 // pair i, then
	UNPCKHPD X3, X3
	ADDSD X3, X7 // pair i+1: the sum stays in index order
	ADDQ $48, SI
	ADDQ $48, BX
	ADDQ $2, AX
	JMP sumpair

sumtail:
	CMPQ AX, CX
	JAE sumdone
	MOVSD 0(SI), X0
	MOVSD 0(BX), X3
	SUBPD X3, X0
	MOVSD 8(SI), X1
	MOVSD 8(BX), X3
	SUBPD X3, X1
	MOVSD 16(SI), X2
	MOVSD 16(BX), X3
	SUBPD X3, X2
	SQDIST
	MOVSD X0, (DI)(AX*8)
	MOVAPD X0, X4
	CMPPD X13, X4, $2
	ORPD X14, X4
	TERM
	ANDPD X4, X3
	ADDSD X3, X7

sumdone:
	MOVSD X7, ret+96(FP)
	RET

// CELL computes DP cell (row, AX) in lane 0 from the row above, up: the
// term of the point in lane 0 of X8-X10 against y[AX-1], lane 0 of the
// pair mirror entry at R11, added to up[AX-1], then the maximum with
// up[AX] and with the left cell, carried in lane 0 of X13. The
// differences are y - p: RN(y-p) = -RN(p-y), so every square keeps its
// bits. Lane 1 of X13 is left alone.
#define CELL(up, row) \
	MOVSD 0(R11), X0; \
	SUBPD X8, X0; \
	MOVSD 16(R11), X1; \
	SUBPD X9, X1; \
	MOVSD 32(R11), X2; \
	SUBPD X10, X2; \
	SQDIST; \
	TERM; \
	ADDSD -8(up)(AX*8), X3; \
	MAXSD (up)(AX*8), X3; \
	MAXSD X3, X13; \
	MOVSD X13, (row)(AX*8)

// func maxPlusPair(val, yp []float64, px, py, pz, qx, qy, qz, d02 float64)
//
// Rows 1 and 2 of val (three rows of n+1 cells, n = len(yp)/6 >= 1) from
// row 0, scored against p and q: maxPlusPairGo. At step t lane 0 computes
// cell (1, t) and lane 1 cell (2, t-2). Both take their left cell from
// the previous step's result, so the only loop-carried op is the MAXPD
// into X13; lane 1's diagonal and up cells are row 1's cells t-3 and t-2,
// finished three and two steps earlier, and both come from registers.
// Each step copies X13 to X6 before updating it, so X6 holds row 1 at
// t-2 in lane 0, not reloaded from the store two steps back. A step's up
// pair is the next step's diagonal pair, so the diagonal stays in X5.
// Lane 0's y[t-1] and lane 1's y[t-3] are one packed load per axis from
// the pair mirror (PairMirror).
// Columns 1-2 of row 1 run alone first, the last columns of row 2 alone
// after.
TEXT ·maxPlusPair(SB), NOSPLIT, $0-104
	MOVQ val_base+0(FP), SI // row 0
	MOVQ yp_base+24(FP), R8
	MOVQ yp_len+32(FP), AX
	XORQ DX, DX
	MOVQ $6, CX
	DIVQ CX
	MOVQ AX, CX // n
	LEAQ 8(SI)(CX*8), DI // row 1
	LEAQ 8(DI)(CX*8), BX // row 2
	MOVSD px+48(FP), X8
	MOVHPD qx+72(FP), X8
	MOVSD py+56(FP), X9
	MOVHPD qy+80(FP), X9
	MOVSD pz+64(FP), X10
	MOVHPD qz+88(FP), X10
	MOVSD d02+96(FP), X11
	UNPCKLPD X11, X11
	XORPD X13, X13 // both rows' column 0

	MOVQ $1, AX
	MOVQ R8, R11 // mirror entry AX-1
	CELL(SI, DI)
	CMPQ CX, $2
	JB pairs
	MOVAPD X13, X6 // row 1 at 1
	INCQ AX
	ADDQ $48, R11
	CELL(SI, DI)

pairs:
	MOVQ $3, AX
	LEAQ 96(R8), R11
	CMPQ AX, CX
	JA last
	MOVSD 16(SI), X5 // diagonal of step 3: row 0 at 2, row 1 at 0
	MOVHPD 0(DI), X5

pair:
	MOVUPD 0(R11), X0 // y[t-1] for lane 0, y[t-3] for lane 1
	SUBPD X8, X0
	MOVUPD 16(R11), X1
	SUBPD X9, X1
	MOVUPD 32(R11), X2
	SUBPD X10, X2
	SQDIST
	TERM
	ADDPD X5, X3 // diagonal: row 0 at t-1, row 1 at t-3
	MOVSD (SI)(AX*8), X5 // up: row 0 at t, row 1 at t-2; the next diagonal
	UNPCKLPD X6, X5
	MAXPD X5, X3
	MOVAPD X13, X6 // row 1 at t-1 in lane 0, lane 1's up cell next step
	MAXPD X3, X13 // left: the previous step
	MOVSD X13, (DI)(AX*8)
	MOVHPD X13, -16(BX)(AX*8)
	ADDQ $48, R11
	INCQ AX
	CMPQ AX, CX
	JBE pair

last:
	// Row 2 finishes in lane 0: move its point and left cell down.
	UNPCKHPD X8, X8
	UNPCKHPD X9, X9
	UNPCKHPD X10, X10
	UNPCKHPD X13, X13
	SUBQ $2, AX
	SUBQ $96, R11

lastcell:
	CELL(DI, BX)
	ADDQ $48, R11
	INCQ AX
	CMPQ AX, CX
	JBE lastcell
	RET
