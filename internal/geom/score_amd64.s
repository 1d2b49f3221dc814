#include "textflag.h"

// Two TM-score terms per iteration, one per SSE2 lane (maxPlusQuad, at
// the end, takes four per AVX2 instruction). Each packed op is the scalar
// op of the Go bodies in score.go in the same order, and IEEE packed and
// scalar arithmetic round alike, so every lane is bit-identical to the Go
// body. A single element (an odd tail) takes the same packed ops with a
// don't-care second lane that is never stored.

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

// quadMask<> is maxPlusQuad's steps 1-6: lane k starts at step 2k+1, and
// before that its column is <= 0 and its cell +0.
DATA quadMask<>+0(SB)/8, $-1
DATA quadMask<>+32(SB)/8, $-1
DATA quadMask<>+64(SB)/8, $-1
DATA quadMask<>+72(SB)/8, $-1
DATA quadMask<>+96(SB)/8, $-1
DATA quadMask<>+104(SB)/8, $-1
DATA quadMask<>+128(SB)/8, $-1
DATA quadMask<>+136(SB)/8, $-1
DATA quadMask<>+144(SB)/8, $-1
DATA quadMask<>+160(SB)/8, $-1
DATA quadMask<>+168(SB)/8, $-1
DATA quadMask<>+176(SB)/8, $-1
GLOBL quadMask<>(SB), RODATA|NOPTR, $192

// QUAD is one step t of maxPlusQuad: lane k's term of row k against
// y[t-1-2k], from mirror entry t-1 at R8 (p - y per axis, then SQDIST's
// and TERM's order in four lanes), plus the diagonal Y5, then the maximum
// with the up vector and with the left cells, the previous step in Y13.
// The up vector is Y6, the step before that, moved up one lane, with
// lane 0's up cell from the block above at SI; it is the next diagonal.
// Y6 takes Y13 before the update, so the only loop-carried op is the
// last VMAXPD.
#define QUAD \
	VSUBPD 0(R8), Y8, Y0; \
	VSUBPD 32(R8), Y9, Y1; \
	VSUBPD 64(R8), Y10, Y2; \
	VMULPD Y0, Y0, Y0; \
	VMULPD Y1, Y1, Y1; \
	VADDPD Y1, Y0, Y0; \
	VMULPD Y2, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VADDPD Y11, Y0, Y0; \
	VDIVPD Y0, Y11, Y3; \
	VADDPD Y5, Y3, Y3; \
	VPERMPD $0x90, Y6, Y5; \
	VBROADCASTSD 0(SI), Y4; \
	VBLENDPD $1, Y4, Y5, Y5; \
	VMAXPD Y5, Y3, Y3; \
	VMOVAPD Y13, Y6; \
	VMAXPD Y3, Y13, Y13

// func maxPlusQuad(blk, yq []float64, p *[12]float64, d02 float64)
//
// One block of MaxPlusFill's table, rows k = 0-3 scored against the
// points p holds per axis (x0-x3, y0-y3, z0-z3), below the block above,
// blk's first n+7 slots (blk holds 8(n+7) values, n >= 1). At step t,
// lane k computes the cell at column t-2k and the four are stored at
// slot t (QuadCell). Slot 0 is +0; steps 1-6 mask the lanes not yet in
// the table (quadMask<>); steps 7 to n+6 run every lane. Past column n a
// lane computes cells no one reads, from the mirror's +0 padding and
// from this block's first slots as the block above's last.
TEXT ·maxPlusQuad(SB), NOSPLIT, $0-64
	MOVQ blk_base+0(FP), SI
	MOVQ blk_len+8(FP), CX
	SHLQ $2, CX // bytes per block, 32(n+7)
	LEAQ (SI)(CX*1), DI // this block's slot 0
	ADDQ $248, SI // lane 3 of the block above at slot 7: lane 0's up at step 1
	SHRQ $5, CX
	SUBQ $7, CX // n
	MOVQ yq_base+24(FP), R8
	MOVQ p+48(FP), DX
	VMOVUPD 0(DX), Y8
	VMOVUPD 32(DX), Y9
	VMOVUPD 64(DX), Y10
	VBROADCASTSD d02+56(FP), Y11
	VXORPD Y13, Y13, Y13
	VXORPD Y6, Y6, Y6
	VXORPD Y5, Y5, Y5
	VMOVUPD Y13, 0(DI)
	LEAQ quadMask<>(SB), R9
	MOVQ $6, BX

masked:
	ADDQ $32, DI
	QUAD
	VANDPD 0(R9), Y13, Y13
	VMOVUPD Y13, 0(DI)
	ADDQ $96, R8
	ADDQ $32, SI
	ADDQ $32, R9
	DECQ BX
	JNZ masked

full:
	ADDQ $32, DI
	QUAD
	VMOVUPD Y13, 0(DI)
	ADDQ $96, R8
	ADDQ $32, SI
	DECQ CX
	JNZ full
	VZEROUPPER
	RET

// func cpuAVX2() bool
//
// AVX2 needs CPUID leaf 7's flag, and YMM state the OS saves: OSXSAVE
// and AVX in leaf 1, XCR0's SSE and AVX bits.
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB noavx2
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)

noavx2:
	RET
