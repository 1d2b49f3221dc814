#include "go_asm.h"
#include "textflag.h"

// Two TM-score terms per iteration, one per SSE2 lane (scorePassQuad and
// maxPlusQuad take four per AVX2 instruction). Each packed op is the scalar
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

// PASS is one block of scorePassQuad, pairs i to i+3 for i = AX, one per
// lane: x's columns at R8, R9, R11 through the rotation (Y15-Y8 and the
// frame's r22) and the translation in Apply's order, ((a*x + b*y) + c*z)
// + t, minus y's columns at R12, R13, SI, then sqDist's order, ((dx*dx +
// dy*dy) + dz*dz), into Y3, stored to dis2 at DI. Y0 becomes the terms
// d02/(di+d02), one VDIVPD, ANDed with the cut2 mask (ORed with the
// frame's all-ones when the mask is off), and BX the bits of di < first.
#define PASS \
	VMOVUPD (R8)(AX*8), Y0; \
	VMOVUPD (R9)(AX*8), Y1; \
	VMOVUPD (R11)(AX*8), Y2; \
	VMULPD Y15, Y0, Y3; \
	VMULPD Y14, Y1, Y4; \
	VADDPD Y4, Y3, Y3; \
	VMULPD Y13, Y2, Y4; \
	VADDPD Y4, Y3, Y3; \
	VADDPD 0(R10), Y3, Y3; \
	VSUBPD (R12)(AX*8), Y3, Y3; \
	VMULPD Y3, Y3, Y3; \
	VMULPD Y12, Y0, Y4; \
	VMULPD Y11, Y1, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD Y10, Y2, Y5; \
	VADDPD Y5, Y4, Y4; \
	VADDPD 32(R10), Y4, Y4; \
	VSUBPD (R13)(AX*8), Y4, Y4; \
	VMULPD Y4, Y4, Y4; \
	VADDPD Y4, Y3, Y3; \
	VMULPD Y9, Y0, Y0; \
	VMULPD Y8, Y1, Y1; \
	VADDPD Y1, Y0, Y0; \
	VMULPD 96(R10), Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VADDPD 64(R10), Y0, Y0; \
	VSUBPD (SI)(AX*8), Y0, Y0; \
	VMULPD Y0, Y0, Y0; \
	VADDPD Y0, Y3, Y3; \
	VMOVUPD Y3, (DI)(AX*8); \
	VADDPD Y6, Y3, Y0; \
	VDIVPD Y0, Y6, Y0; \
	VCMPPD $2, 128(R10), Y3, Y1; \
	VORPD 160(R10), Y1, Y1; \
	VANDPD Y1, Y0, Y0; \
	VCMPPD $1, 192(R10), Y3, Y2; \
	VMOVMSKPD Y2, BX

// BCAST4 broadcasts the float64 at src into the frame's vector at off.
#define BCAST4(src, off) \
	VBROADCASTSD src, Y0; \
	VMOVAPD Y0, off(R10)

// func scorePassQuad(set []int32, dis2 []float64, t *Transform, x, y *Cols, d02, cut2, first float64, mask bool) (sum float64, nCut int)
//
// scorePassGo four pairs per block, len(dis2) >= 4. The lanes' terms are
// added to the sum in X7 one after another, so it keeps index order; a
// masked-out term is ANDed to +0, which leaves the sum's bits alone (it
// starts at +0 and so is never -0). Each block's four bits go into the
// bitset word in DX at their place, and unless set is empty a full word
// is stored and counted with POPCNTL (every AVX2 CPU has it). The
// last n%4 pairs rerun the block ending at pair n-1, whose earlier lanes
// store the dis2 they stored before and add nothing. The frame at R10,
// 32-byte aligned, holds t's translation, r22, cut2, the mask's OR, first
// (vectors at 0-192), set's base, n rounded down to a multiple of 4 and
// the count.
TEXT ·scorePassQuad(SB), NOSPLIT, $288-120
	LEAQ 31(SP), R10
	ANDQ $-32, R10
	MOVQ t+48(FP), AX
	VBROADCASTSD 0(AX), Y15
	VBROADCASTSD 8(AX), Y14
	VBROADCASTSD 16(AX), Y13
	VBROADCASTSD 24(AX), Y12
	VBROADCASTSD 32(AX), Y11
	VBROADCASTSD 40(AX), Y10
	VBROADCASTSD 48(AX), Y9
	VBROADCASTSD 56(AX), Y8
	BCAST4(64(AX), 96)
	BCAST4(72(AX), 0)
	BCAST4(80(AX), 32)
	BCAST4(88(AX), 64)
	VBROADCASTSD d02+72(FP), Y6
	BCAST4(cut2+80(FP), 128)
	MOVBLZX mask+96(FP), BX
	DECQ BX // mask off: all ones, every term added
	MOVQ BX, 160(R10)
	BCAST4(160(R10), 160)
	BCAST4(first+88(FP), 192)
	MOVQ set_base+0(FP), BX
	MOVQ set_len+8(FP), CX
	TESTQ CX, CX
	JNZ haveset
	XORQ BX, BX

haveset:
	MOVQ BX, 224(R10)
	MOVQ dis2_len+32(FP), CX
	ANDQ $-4, CX
	MOVQ CX, 232(R10)
	MOVQ $0, 240(R10)
	MOVQ x+56(FP), BX
	MOVQ Cols_X(BX), R8
	MOVQ Cols_Y(BX), R9
	MOVQ Cols_Z(BX), R11
	MOVQ y+64(FP), BX
	MOVQ Cols_X(BX), R12
	MOVQ Cols_Y(BX), R13
	MOVQ Cols_Z(BX), SI
	MOVQ dis2_base+24(FP), DI
	VXORPD X7, X7, X7 // sum
	XORQ DX, DX // bitset word
	XORQ AX, AX

block:
	PASS
	VADDSD X0, X7, X7 // pair i, then i+1, i+2, i+3
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X7, X7
	VEXTRACTF128 $1, Y0, X0
	VADDSD X0, X7, X7
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X7, X7
	MOVQ AX, CX
	ANDQ $31, CX
	SHLQ CL, BX
	ORQ BX, DX
	ADDQ $4, AX
	TESTQ $31, AX
	JNZ next
	MOVQ 224(R10), BX
	TESTQ BX, BX
	JZ cleared
	MOVQ AX, CX
	SHRQ $5, CX
	MOVL DX, -4(BX)(CX*4)
	POPCNTL DX, BX
	ADDQ BX, 240(R10)

cleared:
	XORQ DX, DX

next:
	CMPQ AX, 232(R10)
	JB block

	MOVQ dis2_len+32(FP), CX
	ANDQ $3, CX
	JZ last
	MOVQ dis2_len+32(FP), AX
	SUBQ $4, AX
	PASS
	VEXTRACTF128 $1, Y0, X2
	CMPQ CX, $2
	JB lane3
	JEQ lane2
	VUNPCKHPD X0, X0, X1
	VADDSD X1, X7, X7 // lane 1 of 3

lane2:
	VADDSD X2, X7, X7

lane3:
	VUNPCKHPD X2, X2, X1
	VADDSD X1, X7, X7
	NEGQ CX
	ADDQ $4, CX
	SHRQ CL, BX // the n%4 new lanes' bits
	MOVQ 232(R10), CX
	ANDQ $31, CX
	SHLQ CL, BX
	ORQ BX, DX

last:
	MOVQ dis2_len+32(FP), AX
	TESTQ $31, AX
	JZ done
	MOVQ 224(R10), BX
	TESTQ BX, BX
	JZ done
	DECQ AX
	SHRQ $5, AX
	MOVL DX, (BX)(AX*4)
	POPCNTL DX, BX
	ADDQ BX, 240(R10)

done:
	VZEROUPPER
	MOVSD X7, sum+104(FP)
	MOVQ 240(R10), AX
	MOVQ AX, nCut+112(FP)
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
