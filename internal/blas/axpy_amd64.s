// The AVX2 level-1 primitive y += alpha*x. See axpy_amd64.go for the
// calling contract.

//go:build amd64 && !noasm

#include "textflag.h"

// func daxpyAVX2(alpha float64, x, y *float64, n int64)
//
// y[i] = y[i] + alpha*x[i] for i < n, the product and the sum rounded
// separately (VMULPD then VADDPD, never FMA), so every element carries the
// bits of the pure-Go loop. Eight elements per trip, then one 4-lane step,
// then scalar VMULSD/VADDSD for the last n%4 — no load or store ever
// reaches past element n-1.
TEXT ·daxpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

	CMPQ CX, $8
	JL   tail4

loop8:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     loop8

tail4:
	CMPQ    CX, $4
	JL      tail1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

tail1:
	TESTQ CX, CX
	JE    done

loop1:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNE    loop1

done:
	VZEROUPPER
	RET
