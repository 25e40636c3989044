//go:build amd64 && !noasm

package pack

// The vector FP64 micro-kernel. The paper's DGEMM throughput rests on a
// hand-tuned register-blocked vector kernel (Basic Kernel 2, Section
// III-A2); the portable scalar Go loop reproduces its arithmetic but not
// its throughput — scalar multiply-add issues one flop-pair per cycle
// where a 256-bit FMA issues eight. On amd64 the 30×8 a-tile geometry is
// therefore computed by an AVX2+FMA 6×8 register block: 30 = 5·6, so the
// block walks a full-height a-tile without ever straddling the tile
// boundary, and 8 doubles of a b-tile row are exactly two YMM loads.
//
// Register plan (AVX2, 16 YMM): Y0..Y11 hold the 6×8 accumulator block
// (two 4-lane halves per row), Y12/Y13 the 8-wide b row, Y14/Y15 the
// broadcast a values (reused across the three row pairs). One k step is
// 2 b loads, 6 broadcasts and 12 FMAs = 96 fused flops.
//
// The probe that gates it (haveAsmKernel) requires FMA3 + AVX + AVX2 in
// CPUID and XMM/YMM state enabled in XCR0 — the same requirements as the
// FP32 kernel, so one probe serves both precisions. Build with the
// `noasm` tag to compile the pure-Go scalar kernels only.

// dgemm6x8 adds one 6×8 block of an a-tile × b-tile product into c:
// c[i·ldc/8+j] += Σ_p a[p·stride/8 + i]·b[p·8 + j], each sum accumulated
// from zero in ascending p with fused multiply-add and then added to c
// once with a separately rounded add. It reads and writes all 6×8
// elements of the c window.
//
//go:noescape
func dgemm6x8(a *float64, strideBytes int64, k int64, b *float64, c *float64, ldcBytes int64)

func cpuidLeaf(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// haveAsmKernel reports whether the CPU and OS support the AVX2+FMA
// kernels (FP64 6×8 and FP32 4×16 alike): FMA3 + AVX + AVX2 in CPUID and
// XMM/YMM state enabled in XCR0.
func haveAsmKernel() bool {
	maxID, _, _, _ := cpuidLeaf(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidLeaf(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidLeaf(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}

// kernelBlock runs the assembly 6×8 block: the block starting at row r0
// of the (column-major, tileM-stride) a-tile against the full k×8 b-tile,
// accumulated into the 6×8 window of c (leading dimension ldc). Caller
// guarantees r0+6 <= tileM and k > 0. The slice expression is the bounds
// check the assembly cannot make: the whole window must lie inside c.
func kernelBlock(aTile []float64, tileM, k, r0 int, bTile []float64, c []float64, ldc int) {
	c = c[:(MicroM-1)*ldc+TileN]
	dgemm6x8(&aTile[r0], int64(tileM)*8, int64(k), &bTile[0], &c[0], int64(ldc)*8)
}
