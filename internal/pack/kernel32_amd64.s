// Single-precision 4×16 FMA micro-kernel block. See kernel32_amd64.go
// for the calling contract; the CPUID probes live in kernel_amd64.s.

//go:build amd64 && !noasm

#include "textflag.h"

// func sgemm4x16(a *float32, strideBytes int64, k int64, b *float32, c *float32, ldcBytes int64)
//
// c[i*ldc + j] += sum_p a[p*stride + i] * b[p*16 + j]   (i<4, j<16, fused)
//
// Register plan (AVX2): Y0..Y7 hold the 4×16 accumulator block (two
// 8-lane halves per row), Y8..Y11 the four broadcast a values of the
// current column, Y12/Y13 the 16-wide b row. One k step is 2 b loads,
// 4 broadcasts and 8 FMAs = 128 fused flops. The epilogue adds each
// accumulator to its c row with a separately rounded VADDPS, as
// dgemm6x8's does.
TEXT ·sgemm4x16(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ strideBytes+8(FP), AX
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldcBytes+40(FP), DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JE    store

loop:
	VMOVUPS      (BX), Y12
	VMOVUPS      32(BX), Y13
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	VFMADD231PS  Y12, Y8, Y0
	VFMADD231PS  Y13, Y8, Y1
	VFMADD231PS  Y12, Y9, Y2
	VFMADD231PS  Y13, Y9, Y3
	VFMADD231PS  Y12, Y10, Y4
	VFMADD231PS  Y13, Y10, Y5
	VFMADD231PS  Y12, Y11, Y6
	VFMADD231PS  Y13, Y11, Y7
	ADDQ         AX, SI
	ADDQ         $64, BX
	DECQ         CX
	JNE          loop

store:
	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    DX, DI
	VADDPS  (DI), Y2, Y2
	VADDPS  32(DI), Y3, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    DX, DI
	VADDPS  (DI), Y4, Y4
	VADDPS  32(DI), Y5, Y5
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    DX, DI
	VADDPS  (DI), Y6, Y6
	VADDPS  32(DI), Y7, Y7
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET
