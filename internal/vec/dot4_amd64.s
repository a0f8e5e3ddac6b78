//go:build amd64

#include "textflag.h"

// func dot4SSE(q, r0, r1, r2, r3 *float32, n int, out *[4]float32)
//
// Requires n > 0 and n % 4 == 0 (the Go wrapper guarantees both). X0–X3
// hold one 4-lane accumulator per row: lane j of row r's accumulator is
// Dot's s_j for that row, advanced by MULPS then ADDPS (never FMA) in the
// same element order. The epilogue transposes the four accumulators so
// three vertical ADDPS compute ((s0+s1)+s2)+s3 for all rows at once —
// Dot's reduction order, lane for lane. All loads are MOVUPS: rows may be
// subslices at any float offset.
TEXT ·dot4SSE(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DI
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX             // byte offset into every row
	SHRQ  $2, CX             // 4-lane steps

loop:
	MOVUPS (SI)(AX*1), X4    // q[i:i+4]
	MOVUPS (R8)(AX*1), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R9)(AX*1), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R10)(AX*1), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R11)(AX*1), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $16, AX
	DECQ   CX
	JNZ    loop

	// Transpose: rows a..d in X0..X3 become lane columns s0..s3.
	MOVAPS   X0, X4
	UNPCKLPS X1, X4          // X4 = a0 b0 a1 b1
	UNPCKHPS X1, X0          // X0 = a2 b2 a3 b3
	MOVAPS   X2, X5
	UNPCKLPS X3, X5          // X5 = c0 d0 c1 d1
	UNPCKHPS X3, X2          // X2 = c2 d2 c3 d3
	MOVAPS   X4, X6
	MOVLHPS  X5, X6          // X6 = a0 b0 c0 d0
	MOVHLPS  X4, X5          // X5 = a1 b1 c1 d1
	MOVAPS   X0, X7
	MOVLHPS  X2, X7          // X7 = a2 b2 c2 d2
	MOVHLPS  X0, X2          // X2 = a3 b3 c3 d3
	ADDPS    X5, X6          // s0+s1
	ADDPS    X7, X6          // (s0+s1)+s2
	ADDPS    X2, X6          // ((s0+s1)+s2)+s3
	MOVUPS   X6, (DI)
	RET
