//go:build amd64

#include "textflag.h"

// func axpy4SSE(w *[4]float32, r0, r1, r2, r3, out *float32, n int)
//
// Requires n > 0 and n % 4 == 0 (the Go wrapper guarantees both). X0–X3
// hold w[0]..w[3] broadcast to all four lanes. Each 4-float chunk of out is
// loaded once into X4, gets MULPS then ADDPS (never FMA) for rows 0, 1, 2
// and 3 in that order, and is stored once: every lane sees the rounded
// adds of axpy4Generic's o += w0*r0[j]; …; o += w3*r3[j], in the same
// order. All loads and stores are MOVUPS: rows and out may start at any
// float offset.
TEXT ·axpy4SSE(SB), NOSPLIT, $0-56
	MOVQ   w+0(FP), AX
	MOVSS  0(AX), X0
	SHUFPS $0x00, X0, X0     // w0 w0 w0 w0
	MOVSS  4(AX), X1
	SHUFPS $0x00, X1, X1
	MOVSS  8(AX), X2
	SHUFPS $0x00, X2, X2
	MOVSS  12(AX), X3
	SHUFPS $0x00, X3, X3
	MOVQ   r0+8(FP), R8
	MOVQ   r1+16(FP), R9
	MOVQ   r2+24(FP), R10
	MOVQ   r3+32(FP), R11
	MOVQ   out+40(FP), DI
	MOVQ   n+48(FP), CX
	XORQ   AX, AX            // byte offset into out and every row
	SHRQ   $2, CX            // 4-lane steps

loop:
	MOVUPS (DI)(AX*1), X4    // out[j:j+4]
	MOVUPS (R8)(AX*1), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS (R9)(AX*1), X6
	MULPS  X1, X6
	ADDPS  X6, X4
	MOVUPS (R10)(AX*1), X7
	MULPS  X2, X7
	ADDPS  X7, X4
	MOVUPS (R11)(AX*1), X8
	MULPS  X3, X8
	ADDPS  X8, X4
	MOVUPS X4, (DI)(AX*1)
	ADDQ   $16, AX
	DECQ   CX
	JNZ    loop
	RET
