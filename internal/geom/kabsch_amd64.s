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

// func kabschSums(p, q []Vec3, m *sums)
//
// kabschSumsGo with two of its addition chains per SSE2 lane pair, each
// lane the Go loop's chain in its order, with no fused multiply-add.
// The centroid sums pack as (cpx, cpy), (cpz, cqx), (cqy, cqz): the
// layout of cp and cq in memory. The covariance pass lines a and b up
// axis by axis, (ax, bx), (ay, by), (az, bz), for the spreads (ep, eq),
// and pairs the products as (s00, s10), (s01, s11), (s02, s12),
// (s20, s21) and s22 alone. len(p) == len(q) >= 1.
TEXT ·kabschSums(SB), NOSPLIT, $0-56
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ q_base+24(FP), BX
	MOVQ m+48(FP), DI
	XORPD X8, X8
	XORPD X9, X9
	XORPD X10, X10
	MOVQ SI, R8
	MOVQ BX, R9
	MOVQ CX, DX

centroid:
	MOVUPD 0(R8), X0
	ADDPD X0, X8 // (cpx, cpy)
	MOVSD 16(R8), X1
	MOVHPD 0(R9), X1
	ADDPD X1, X9 // (cpz, cqx)
	MOVUPD 8(R9), X2
	ADDPD X2, X10 // (cqy, cqz)
	ADDQ $24, R8
	ADDQ $24, R9
	DECQ DX
	JNZ centroid

	MOVQ $0x3ff0000000000000, AX // 1.0
	MOVQ AX, X0
	CVTSQ2SD CX, X1
	DIVSD X1, X0 // 1 / float64(n)
	UNPCKLPD X0, X0
	MULPD X0, X8
	MULPD X0, X9
	MULPD X0, X10
	MOVUPD X8, sums_cp+0(DI)
	MOVUPD X9, sums_cp+16(DI)
	MOVUPD X10, sums_cq+8(DI)
	MOVAPD X8, X13
	SHUFPD $2, X9, X13 // (cpx, cqx)
	MOVAPD X8, X14
	SHUFPD $1, X10, X14 // (cpy, cqy)
	MOVAPD X9, X15
	SHUFPD $2, X10, X15 // (cpz, cqz)

	XORPD X7, X7
	XORPD X8, X8
	XORPD X9, X9
	XORPD X10, X10
	XORPD X11, X11
	XORPD X12, X12

covariance:
	MOVSD 0(SI), X0
	MOVHPD 0(BX), X0
	SUBPD X13, X0 // (ax, bx)
	MOVSD 8(SI), X1
	MOVHPD 8(BX), X1
	SUBPD X14, X1 // (ay, by)
	MOVSD 16(SI), X2
	MOVHPD 16(BX), X2
	SUBPD X15, X2 // (az, bz)
	MOVAPD X0, X3
	MULPD X3, X3
	MOVAPD X1, X4
	MULPD X4, X4
	ADDPD X4, X3
	MOVAPD X2, X4
	MULPD X4, X4
	ADDPD X4, X3
	ADDPD X3, X7 // (ep, eq)
	MOVAPD X0, X3
	UNPCKLPD X1, X3 // (ax, ay)
	MOVAPD X0, X4
	UNPCKHPD X4, X4
	MULPD X3, X4
	ADDPD X4, X8 // (s00, s10) += (ax, ay) * bx
	MOVAPD X1, X4
	UNPCKHPD X4, X4
	MULPD X3, X4
	ADDPD X4, X9 // (s01, s11) += (ax, ay) * by
	MOVAPD X2, X5
	UNPCKHPD X5, X5
	MOVAPD X5, X4
	MULPD X3, X4
	ADDPD X4, X10 // (s02, s12) += (ax, ay) * bz
	MULSD X2, X5
	ADDSD X5, X12 // s22 += az * bz
	MOVAPD X0, X3
	UNPCKHPD X1, X3 // (bx, by)
	MOVAPD X2, X4
	UNPCKLPD X4, X4
	MULPD X3, X4
	ADDPD X4, X11 // (s20, s21) += az * (bx, by)
	ADDQ $24, SI
	ADDQ $24, BX
	DECQ CX
	JNZ covariance

	MOVUPD X7, sums_ep(DI)
	MOVSD X8, sums_s+0(DI)
	MOVHPD X8, sums_s+24(DI)
	MOVSD X9, sums_s+8(DI)
	MOVHPD X9, sums_s+32(DI)
	MOVSD X10, sums_s+16(DI)
	MOVHPD X10, sums_s+40(DI)
	MOVUPD X11, sums_s+48(DI)
	MOVSD X12, sums_s+64(DI)
	RET

// ROW sets X3 = ((a*x + b*y) + c*z) + t lane-wise: one output axis of
// two points, with their x, y, z in X0-X2, the row's rotation entries
// in a, b, c and its translation at t(R10), all broadcast. X4 is
// clobbered.
#define ROW(a, b, c, t) \
	MOVAPD a, X3; \
	MULPD X0, X3; \
	MOVAPD b, X4; \
	MULPD X1, X4; \
	ADDPD X4, X3; \
	MOVAPD c, X4; \
	MULPD X2, X4; \
	ADDPD X4, X3; \
	ADDPD t(R10), X3

// LASTROW is ROW for the third axis, into X0: it consumes x, y and z.
#define LASTROW \
	MULPD X13, X0; \
	MULPD X14, X1; \
	ADDPD X1, X0; \
	MULPD X15, X2; \
	ADDPD X2, X0; \
	ADDPD 32(R10), X0

// BCAST loads the float64 at off(AX) into both lanes of x.
#define BCAST(off, x) \
	MOVSD off(AX), x; \
	UNPCKLPD x, x

// func applyAll(dst, pts []Vec3, t *Transform)
//
// applyAllGo two points at a time, point i in lane 0 and point i+1 in
// lane 1, each lane Apply's operation order; an odd last point runs
// alone in lane 0. The rotation stays in X7-X15 and the translation in
// a 16-byte-aligned slot of the frame at R10, which ADDPD reads in
// place. len(dst) == len(pts).
TEXT ·applyAll(SB), NOSPLIT, $64-56
	MOVQ dst_base+0(FP), DI
	MOVQ pts_base+24(FP), SI
	MOVQ pts_len+32(FP), CX
	MOVQ t+48(FP), AX
	LEAQ 15(SP), R10
	ANDQ $-16, R10
	BCAST(0, X7)
	BCAST(8, X8)
	BCAST(16, X9)
	BCAST(24, X10)
	BCAST(32, X11)
	BCAST(40, X12)
	BCAST(48, X13)
	BCAST(56, X14)
	BCAST(64, X15)
	BCAST(72, X0)
	MOVAPD X0, 0(R10)
	BCAST(80, X0)
	MOVAPD X0, 16(R10)
	BCAST(88, X0)
	MOVAPD X0, 32(R10)
	MOVQ CX, DX
	SHRQ $1, DX
	JZ tail

pair:
	MOVSD 0(SI), X0
	MOVHPD 24(SI), X0
	MOVSD 8(SI), X1
	MOVHPD 32(SI), X1
	MOVSD 16(SI), X2
	MOVHPD 40(SI), X2
	ROW(X7, X8, X9, 0)
	MOVSD X3, 0(DI)
	MOVHPD X3, 24(DI)
	ROW(X10, X11, X12, 16)
	MOVSD X3, 8(DI)
	MOVHPD X3, 32(DI)
	LASTROW
	MOVSD X0, 16(DI)
	MOVHPD X0, 40(DI)
	ADDQ $48, SI
	ADDQ $48, DI
	DECQ DX
	JNZ pair

tail:
	TESTQ $1, CX
	JEQ done
	MOVSD 0(SI), X0
	MOVSD 8(SI), X1
	MOVSD 16(SI), X2
	ROW(X7, X8, X9, 0)
	MOVSD X3, 0(DI)
	ROW(X10, X11, X12, 16)
	MOVSD X3, 8(DI)
	LASTROW
	MOVSD X0, 16(DI)

done:
	RET
