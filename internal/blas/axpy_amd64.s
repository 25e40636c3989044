// The AVX2 level-1 primitives y += alpha*x, one per precision. See
// axpy_amd64.go for the calling contract.

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

// func saxpyAVX2(alpha float32, x, y *float32, n int64)
//
// daxpyAVX2 in single precision: y[i] = y[i] + alpha*x[i] for i < n,
// VMULPS then VADDPS, never FMA. Sixteen elements per trip, then one
// 8-lane and one 4-lane step, then scalar VMULSS/VADDSS for the last n%4.
// Every trip loads all of its x and y before it stores any y.
TEXT ·saxpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

	CMPQ CX, $16
	JL   stail8

sloop16:
	VMULPS  (SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     sloop16

stail8:
	CMPQ    CX, $8
	JL      stail4
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX

stail4:
	CMPQ    CX, $4
	JL      stail1
	VMULPS  (SI), X0, X1
	VADDPS  (DI), X1, X1
	VMOVUPS X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX

stail1:
	TESTQ CX, CX
	JE    sdone

sloop1:
	VMULSS (SI), X0, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNE    sloop1

sdone:
	VZEROUPPER
	RET
