#include "go_asm.h"
#include "textflag.h"

// jacobi's cyclic sweeps on two symmetric 4x4 matrices at once, one per
// SSE2 lane. Each packed op is the scalar op of jacobi in kabsch.go in the
// same order, with no fused multiply-add: 2*a[i][j] is the exact a+a,
// math.Abs the sign-bit mask, t = -t a sign-bit flip under the mask of
// theta < 0 (never a copy of theta's sign: theta = -0 keeps t positive),
// and SQRTPD / DIVPD round like SQRTSD / DIVSD. So every lane is
// bit-identical to the scalar loop for as long as the kernel runs.

// E is the byte offset of entry (i, j) of a [4][4][2]float64.
#define E(i, j) i*64+j*16

// PAIR applies the rotation (c, s) in X14, X15 to the entries at byte
// offsets p and q of the matrix at base: p' = c*p - s*q, q' = s*p + c*q.
#define PAIR(base, p, q) \
	MOVUPD p(base), X0; \
	MOVUPD q(base), X1; \
	MOVAPD X0, X2; \
	MULPD X14, X2; \
	MOVAPD X1, X3; \
	MULPD X15, X3; \
	SUBPD X3, X2; \
	MULPD X15, X0; \
	MULPD X14, X1; \
	ADDPD X1, X0; \
	MOVUPD X2, p(base); \
	MOVUPD X0, q(base)

// ROTATE is rotation r of a sweep, pivot (i, j): it stops the kernel with
// BX = r if a[i][j] is zero in either lane, else computes (c, s) and
// applies them to rows i, j and then columns i, j of a (DI) and columns
// i, j of v (SI).
#define ROTATE(i, j, r) \
	MOVUPD E(i, j)(DI), X0; \
	MOVAPD X0, X1; \
	CMPPD X10, X1, $0; \
	MOVMSKPD X1, AX; \
	MOVQ $r, BX; \
	TESTQ AX, AX; \
	JNE stop; \
	MOVUPD E(j, j)(DI), X2; \
	MOVUPD E(i, i)(DI), X3; \
	SUBPD X3, X2; \
	ADDPD X0, X0; \
	DIVPD X0, X2; \
	MOVAPD X2, X3; \
	MULPD X2, X3; \
	ADDPD X12, X3; \
	SQRTPD X3, X3; \
	MOVAPD X2, X4; \
	ANDPD X11, X4; \
	ADDPD X3, X4; \
	MOVAPD X12, X5; \
	DIVPD X4, X5; \
	CMPPD X10, X2, $1; \
	ANDPD X9, X2; \
	XORPD X2, X5; \
	MOVAPD X5, X3; \
	MULPD X5, X3; \
	ADDPD X12, X3; \
	SQRTPD X3, X3; \
	MOVAPD X12, X14; \
	DIVPD X3, X14; \
	MOVAPD X5, X15; \
	MULPD X14, X15; \
	PAIR(DI, E(i, 0), E(j, 0)); \
	PAIR(DI, E(i, 1), E(j, 1)); \
	PAIR(DI, E(i, 2), E(j, 2)); \
	PAIR(DI, E(i, 3), E(j, 3)); \
	PAIR(DI, E(0, i), E(0, j)); \
	PAIR(DI, E(1, i), E(1, j)); \
	PAIR(DI, E(2, i), E(2, j)); \
	PAIR(DI, E(3, i), E(3, j)); \
	PAIR(SI, E(0, i), E(0, j)); \
	PAIR(SI, E(1, i), E(1, j)); \
	PAIR(SI, E(2, i), E(2, j)); \
	PAIR(SI, E(3, i), E(3, j))

// OFF adds a[i][j]² to the off-diagonal sum in X7.
#define OFF(i, j) \
	MOVUPD E(i, j)(DI), X0; \
	MULPD X0, X0; \
	ADDPD X0, X7

// func jacobi2(a, v *[4][4][2]float64) (sweep, rot int)
//
// Runs whole sweeps while neither lane has converged, neither has a zero
// pivot and fewer than jacobiSweeps sweeps are done, and returns where it
// stopped: rotation rot of sweep sweep, which jacobi resumes each lane at.
TEXT ·jacobi2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ $0x8000000000000000, AX // sign bit
	MOVQ AX, X9
	UNPCKLPD X9, X9
	XORPD X10, X10 // +0
	MOVQ $0x7fffffffffffffff, AX // everything but the sign bit
	MOVQ AX, X11
	UNPCKLPD X11, X11
	MOVQ $0x3ff0000000000000, AX // 1.0
	MOVQ AX, X12
	UNPCKLPD X12, X12
	MOVQ $0x3af357c299a88ea7, AX // 1e-24
	MOVQ AX, X13
	UNPCKLPD X13, X13
	XORQ CX, CX

sweep:
	XORQ BX, BX
	CMPQ CX, $const_jacobiSweeps
	JAE stop
	XORPD X7, X7
	OFF(0, 1)
	OFF(0, 2)
	OFF(0, 3)
	OFF(1, 2)
	OFF(1, 3)
	OFF(2, 3)
	CMPPD X13, X7, $1 // off < 1e-24
	MOVMSKPD X7, AX
	TESTQ AX, AX
	JNE stop
	ROTATE(0, 1, 0)
	ROTATE(0, 2, 1)
	ROTATE(0, 3, 2)
	ROTATE(1, 2, 3)
	ROTATE(1, 3, 4)
	ROTATE(2, 3, 5)
	INCQ CX
	JMP sweep

stop:
	MOVQ CX, sweep+16(FP)
	MOVQ BX, rot+24(FP)
	RET
