#include "textflag.h"

// func affineLanes(s1 string, t, rows []int16)
//
// affineScore of s1 against eight targets at once, one int16 lane per
// target: t holds n = len(t)/8 columns of the eight targets' residues,
// and rows n columns of the three states m, x and best, eight lanes each
// (48 bytes a column). Row 0 is set here; on return the best states hold
// the last row, so lane k's score is its best state at its own length.
// Saturating adds (PADDSW) pin every state derived from an unreachable
// one at the sentinel -32768, below every reachable cell, and the caller
// keeps the reachable ones inside int16, so each lane is affineScore's
// int32 recurrence to the bit. Column 0 is never stored: its best is the
// next row's first diagonal, kept in X2, and its m and x states feed no
// other cell.
TEXT ·affineLanes(SB), NOSPLIT, $0-64
	MOVQ s1_base+0(FP), SI
	MOVQ s1_len+8(FP), R9
	MOVQ t_base+16(FP), R10
	MOVQ t_len+24(FP), CX
	SHRQ $3, CX // n
	MOVQ rows_base+40(FP), DI
	PCMPEQW X12, X12 // gapExtend = -1
	MOVO X12, X15
	PSLLW $15, X15 // -32768
	MOVQ $0x000a000a000a000a, AX // seqMatch = 10
	MOVQ AX, X14
	PUNPCKLQDQ X14, X14
	MOVQ $0xfff5fff5fff5fff5, AX // gapOpen + gapExtend = -11
	MOVQ AX, X13
	PUNPCKLQDQ X13, X13
	MOVQ $0xfff6fff6fff6fff6, AX // gapOpen = -10
	MOVQ AX, X7
	PUNPCKLQDQ X7, X7

	// Row 0: m and x unreachable, best = gapOpen + j*gapExtend.
	MOVO X7, X1
	MOVQ DI, BX
	MOVQ CX, DX
	TESTQ DX, DX
	JZ rows

init:
	PADDW X12, X1
	MOVOU X15, 0(BX)
	MOVOU X15, 16(BX)
	MOVOU X1, 32(BX)
	ADDQ $48, BX
	DECQ DX
	JNZ init

rows:
	PXOR X2, X2 // best(0, 0)
	XORQ R8, R8
	TESTQ CX, CX
	JZ done

row:
	CMPQ R8, R9
	JAE done
	MOVBLZX (SI)(R8*1), AX
	MOVQ AX, X11
	PSHUFLW $0, X11, X11
	PUNPCKLQDQ X11, X11 // this row's residue in every lane
	MOVO X2, X4 // diagonal of column 1
	PADDW X12, X7
	MOVO X7, X2 // best(i+1, 0) = gapOpen + (i+1)*gapExtend
	MOVO X15, X5 // left m
	MOVO X15, X6 // left y
	MOVQ DI, BX
	MOVQ R10, DX
	MOVQ CX, R11

col:
	MOVOU (DX), X0
	PCMPEQW X11, X0
	PAND X14, X0
	PADDSW X4, X0 // m = diagonal + match
	MOVOU 0(BX), X1
	PADDSW X13, X1
	MOVOU 16(BX), X3
	PADDSW X12, X3
	PMAXSW X1, X3 // x = max(m above + open, x above + extend)
	MOVOU 32(BX), X4 // the next column's diagonal
	PADDSW X13, X5
	PADDSW X12, X6
	PMAXSW X5, X6 // y = max(left m + open, left y + extend)
	MOVO X0, X5
	MOVOU X0, 0(BX)
	MOVOU X3, 16(BX)
	PMAXSW X3, X0
	PMAXSW X6, X0
	MOVOU X0, 32(BX)
	ADDQ $16, DX
	ADDQ $48, BX
	DECQ R11
	JNZ col
	INCQ R8
	JMP row

done:
	RET
