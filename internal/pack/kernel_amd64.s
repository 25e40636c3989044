// Double-precision 6×8 FMA micro-kernel block and the CPUID probes that
// gate the vector kernels. See kernel_amd64.go for the calling contract.

//go:build amd64 && !noasm

#include "textflag.h"

// func dgemm6x8(a *float64, strideBytes int64, k int64, b *float64, c *float64, ldcBytes int64)
//
// c[i*ldc + j] += sum_p a[p*stride + i] * b[p*8 + j]   (i<6, j<8, fused)
//
// Register plan (AVX2): Y0..Y11 hold the 6×8 accumulator block (two
// 4-lane halves per row), Y12/Y13 the 8-wide b row, Y14/Y15 the broadcast
// a values of the current column, reused across the three row pairs. One
// k step is 2 b loads, 6 broadcasts and 12 FMAs = 96 fused flops. The
// epilogue adds each accumulator to its c row with a separately rounded
// VADDPD — the same single add-back the Go epilogue performed.
TEXT ·dgemm6x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ strideBytes+8(FP), AX
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldcBytes+40(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JE    store

loop:
	VMOVUPD      (BX), Y12
	VMOVUPD      32(BX), Y13
	VBROADCASTSD (SI), Y14
	VBROADCASTSD 8(SI), Y15
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VFMADD231PD  Y12, Y15, Y2
	VFMADD231PD  Y13, Y15, Y3
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VFMADD231PD  Y12, Y15, Y6
	VFMADD231PD  Y13, Y15, Y7
	VBROADCASTSD 32(SI), Y14
	VBROADCASTSD 40(SI), Y15
	VFMADD231PD  Y12, Y14, Y8
	VFMADD231PD  Y13, Y14, Y9
	VFMADD231PD  Y12, Y15, Y10
	VFMADD231PD  Y13, Y15, Y11
	ADDQ         AX, SI
	ADDQ         $64, BX
	DECQ         CX
	JNE          loop

store:
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y2, Y2
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y4, Y4
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y6, Y6
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y8, Y8
	VADDPD  32(DI), Y9, Y9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y10, Y10
	VADDPD  32(DI), Y11, Y11
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, 32(DI)
	VZEROUPPER
	RET

// func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
