//go:build amd64

#include "textflag.h"

// func dot4x2SSE(q0, q1, q2, q3, r0, r1 *float32, n int, out *[2][4]float32)
//
// Requires n > 0 and n % 4 == 0 (the Go wrapper guarantees both). X0–X7
// hold one 4-lane accumulator per (query, row) pair: X(2j) is query j
// against row 0, X(2j+1) query j against row 1. Lane k of each is Dot's
// s_k for that pair, advanced by MULPS then ADDPS (never FMA) in the same
// element order. X8/X9 hold the two row chunks, X10–X13 are product
// temporaries. The epilogue transposes each row's four accumulators, as
// dot4SSE does, so three vertical ADDPS compute ((s0+s1)+s2)+s3 for all
// four queries at once — Dot's reduction order, lane for lane. All loads
// are MOVUPS: queries and rows may start at any float offset.
TEXT ·dot4x2SSE(SB), NOSPLIT, $0-64
	MOVQ q0+0(FP), SI
	MOVQ q1+8(FP), DI
	MOVQ q2+16(FP), R8
	MOVQ q3+24(FP), R9
	MOVQ r0+32(FP), R10
	MOVQ r1+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ out+56(FP), DX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  AX, AX             // byte offset into every query and row
	SHRQ  $2, CX             // 4-lane steps

loop:
	MOVUPS (R10)(AX*1), X8   // r0[i:i+4]
	MOVUPS (R11)(AX*1), X9   // r1[i:i+4]
	MOVUPS (SI)(AX*1), X10   // q0
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X0
	MULPS  X9, X11
	ADDPS  X11, X1
	MOVUPS (DI)(AX*1), X12   // q1
	MOVAPS X12, X13
	MULPS  X8, X12
	ADDPS  X12, X2
	MULPS  X9, X13
	ADDPS  X13, X3
	MOVUPS (R8)(AX*1), X10   // q2
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X4
	MULPS  X9, X11
	ADDPS  X11, X5
	MOVUPS (R9)(AX*1), X12   // q3
	MOVAPS X12, X13
	MULPS  X8, X12
	ADDPS  X12, X6
	MULPS  X9, X13
	ADDPS  X13, X7
	ADDQ   $16, AX
	DECQ   CX
	JNZ    loop

	// Row 0: queries a..d in X0, X2, X4, X6 become lane columns s0..s3.
	MOVAPS   X0, X8
	UNPCKLPS X2, X8          // X8 = a0 b0 a1 b1
	UNPCKHPS X2, X0          // X0 = a2 b2 a3 b3
	MOVAPS   X4, X9
	UNPCKLPS X6, X9          // X9 = c0 d0 c1 d1
	UNPCKHPS X6, X4          // X4 = c2 d2 c3 d3
	MOVAPS   X8, X10
	MOVLHPS  X9, X10         // X10 = a0 b0 c0 d0
	MOVHLPS  X8, X9          // X9 = a1 b1 c1 d1
	MOVAPS   X0, X11
	MOVLHPS  X4, X11         // X11 = a2 b2 c2 d2
	MOVHLPS  X0, X4          // X4 = a3 b3 c3 d3
	ADDPS    X9, X10         // s0+s1
	ADDPS    X11, X10        // (s0+s1)+s2
	ADDPS    X4, X10         // ((s0+s1)+s2)+s3
	MOVUPS   X10, (DX)

	// Row 1: queries a..d in X1, X3, X5, X7, the same transpose.
	MOVAPS   X1, X12
	UNPCKLPS X3, X12
	UNPCKHPS X3, X1
	MOVAPS   X5, X13
	UNPCKLPS X7, X13
	UNPCKHPS X7, X5
	MOVAPS   X12, X14
	MOVLHPS  X13, X14
	MOVHLPS  X12, X13
	MOVAPS   X1, X15
	MOVLHPS  X5, X15
	MOVHLPS  X1, X5
	ADDPS    X13, X14
	ADDPS    X15, X14
	ADDPS    X5, X14
	MOVUPS   X14, 16(DX)
	RET
