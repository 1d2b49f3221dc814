#include "textflag.h"

// Two TM-score terms per iteration, one per SSE2 lane. Each packed op is
// the scalar op of scoreRowGo / scoreSumGo in the same order, and IEEE
// packed and scalar arithmetic round alike, so every lane is bit-identical
// to the Go body; an odd last element takes the same ops in scalar form.

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
	MOVQ $0x3ff0000000000000, AX // 1.0
	MOVQ AX, X12
	UNPCKLPD X12, X12
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
	MULPD X0, X0
	MULPD X1, X1
	ADDPD X1, X0 // dx*dx + dy*dy
	MULPD X2, X2
	ADDPD X2, X0 // ... + dz*dz
	DIVPD X11, X0
	ADDPD X12, X0
	MOVAPD X12, X3
	DIVPD X0, X3 // 1 / (1 + di/d02)
	MOVUPD X3, (DI)(AX*8)
	ADDQ $2, AX
	JMP rowpair

rowtail:
	CMPQ AX, CX
	JAE rowdone
	MOVAPD X8, X0
	SUBSD (R8)(AX*8), X0
	MOVAPD X9, X1
	SUBSD (R9)(AX*8), X1
	MOVAPD X10, X2
	SUBSD (R10)(AX*8), X2
	MULSD X0, X0
	MULSD X1, X1
	ADDSD X1, X0
	MULSD X2, X2
	ADDSD X2, X0
	DIVSD X11, X0
	ADDSD X12, X0
	MOVAPD X12, X3
	DIVSD X0, X3
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
	MOVQ $0x3ff0000000000000, AX // 1.0
	MOVQ AX, X12
	UNPCKLPD X12, X12
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
	MULPD X0, X0
	MULPD X1, X1
	ADDPD X1, X0
	MULPD X2, X2
	ADDPD X2, X0
	MOVUPD X0, (DI)(AX*8)
	MOVAPD X0, X4
	CMPPD X13, X4, $2 // di <= cut2 (false for NaN)
	ORPD X14, X4
	DIVPD X11, X0
	ADDPD X12, X0
	MOVAPD X12, X3
	DIVPD X0, X3
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
	SUBSD 0(BX), X0
	MOVSD 8(SI), X1
	SUBSD 8(BX), X1
	MOVSD 16(SI), X2
	SUBSD 16(BX), X2
	MULSD X0, X0
	MULSD X1, X1
	ADDSD X1, X0
	MULSD X2, X2
	ADDSD X2, X0
	MOVSD X0, (DI)(AX*8)
	MOVAPD X0, X4
	CMPSD X13, X4, $2
	ORPD X14, X4
	DIVSD X11, X0
	ADDSD X12, X0
	MOVAPD X12, X3
	DIVSD X0, X3
	ANDPD X4, X3
	ADDSD X3, X7

sumdone:
	MOVSD X7, ret+96(FP)
	RET
