//go:build amd64 && !noasm

package pack

// The vector FP32 micro-kernel. The paper's single-precision path exists
// because the coprocessor's 16-lane SP vectors double SGEMM throughput
// over DGEMM (Table II); a scalar Go loop cannot reproduce that ratio —
// scalar SP and DP multiply-add issue at the same rate — so the SGEMM
// register blocking is implemented as an AVX2+FMA assembly block on
// amd64, gated behind the shared CPUID probe (haveAsmKernel, see
// kernel_amd64.go), with the portable scalar kernel as the
// always-available fallback and test oracle.

// sgemm4x16 adds one 4×16 block of an a-tile × b-tile product into c:
// c[i·ldc/4+j] += Σ_p a[p·stride/4 + i]·b[p·16 + j], each sum accumulated
// from zero in ascending p with fused multiply-add and then added to c
// once with a separately rounded add — dgemm6x8's contract in single
// precision. It reads and writes all 4×16 elements of the c window.
//
//go:noescape
func sgemm4x16(a *float32, strideBytes int64, k int64, b *float32, c *float32, ldcBytes int64)

// kernel32Block runs the assembly 4×16 block: the block starting at row
// r0 of the (column-major, tileM-stride) a-tile against the full k×16
// b-tile, accumulated into the 4×16 window of c (leading dimension ldc).
// Caller guarantees r0+4 <= tileM and k > 0. The slice expression is the
// bounds check the assembly cannot make: the whole window must lie inside
// c.
func kernel32Block(aTile []float32, tileM, k, r0 int, bTile []float32, c []float32, ldc int) {
	c = c[:(microM32-1)*ldc+TileN32]
	sgemm4x16(&aTile[r0], int64(tileM)*4, int64(k), &bTile[0], &c[0], int64(ldc)*4)
}
