package pack

// The single-precision leaf kernel and its gate. The paper evaluates SGEMM
// alongside DGEMM (Table II): the SP vector is 16 lanes wide, so b-tiles
// are 16 columns. The a-tile is 32 rows — the same register-blocked shape
// as the paper's 30-row Basic Kernel 2, rounded up to a multiple of the
// 4-row FMA block so the vector kernel never straddles a tile boundary
// (padding rows are zero and are simply not written back). Packing and
// the tile grid above the kernel are the generic code of pack.go.

// TileN32 is the single-precision b-tile width: 16 floats, one 512-bit
// vector register.
const TileN32 = 16

// DefaultTileM32 is the single-precision a-tile height: eight 4×16
// register blocks.
const DefaultTileM32 = 32

// microM32 is the row height of the FP32 vector register block: a 4×16
// accumulator block is 8 YMM registers (two 8-lane halves per row).
const microM32 = 4

// DisableVectorKernel32 forces the portable scalar FP32 micro-kernel even
// when the AVX2+FMA block kernel is available. The scalar kernel is the
// bitwise reference for blas.Sgemm (unfused multiply-add, same per-element
// grouping); tests set this to pin the cross-kernel oracle. It is not safe
// to change concurrently with running kernels. The
// PHIHPL_DISABLE_VECTOR_KERNEL environment variable sets it at startup
// (see pack.go).
var DisableVectorKernel32 = false

// vectorKernel32 records the one-time CPUID probe for the AVX2+FMA
// kernels, shared with the FP64 gate (both need FMA3+AVX2).
var vectorKernel32 = haveAsmKernel()

// VectorKernel32 reports whether the fused vector FP32 kernel is available
// on this CPU (and OS). When false, MicroKernel32 always runs the scalar
// fallback.
func VectorKernel32() bool { return vectorKernel32 }

// MicroKernel32 computes the rows×cols corner of c += a-tile × b-tile in
// single precision, the SGEMM analogue of MicroKernel. c is row-major
// with leading dimension ldc, starting at the tile's top-left element.
//
// Two implementations sit behind this entry point:
//
//   - The vector kernel (amd64 with AVX2+FMA): 4×16 register blocks, each
//     element accumulated in ascending p with fused multiply-add — the
//     register blocking of the paper's SGEMM, which needs real vector FMA
//     to show SP's 2× throughput over DP (scalar SP and DP multiply-add
//     issue at the same rate, so no scalar loop can reproduce Table II).
//   - The portable scalar kernel: row-at-a-time with 16 scalar
//     accumulators, unfused multiply-add in the same ascending-p order.
//     This path is bit-for-bit the arithmetic of the blas.Sgemm reference
//     loop and serves as its oracle.
//
// Both paths perform every product unconditionally (no zero-skips, NaN
// and Inf propagate per IEEE), accumulate each element in ascending p,
// and add the block sum into c exactly once — so for a fixed k the
// accumulation order of each element is independent of the tile's
// position, the matrix partitioning and the worker count. The two paths
// differ only in product rounding (fused vs. separate), so results are
// deterministic on a given machine and element-wise within O(k)·ulp of
// each other across machines.
func MicroKernel32(aTile []float32, tileM, k int, bTile []float32, c []float32, ldc, rows, cols int) {
	if k <= 0 || rows <= 0 || cols <= 0 {
		return
	}
	if vectorKernel32 && !DisableVectorKernel32 && tileM%microM32 == 0 {
		for r0 := 0; r0 < rows; r0 += microM32 {
			br := min(rows-r0, microM32)
			if br == microM32 && cols == TileN32 {
				// Full block: the assembly epilogue adds straight into c.
				kernel32Block(aTile, tileM, k, r0, bTile, c[r0*ldc:], ldc)
				continue
			}
			// Edge block: staged through a stack copy of the real
			// br×cols corner, as in MicroKernel; what the zero padding of
			// the tiles adds to the rest of the window is not copied back.
			var win [microM32 * TileN32]float32
			for i := 0; i < br; i++ {
				copy(win[i*TileN32:], c[(r0+i)*ldc:(r0+i)*ldc+cols])
			}
			kernel32Block(aTile, tileM, k, r0, bTile, win[:], TileN32)
			for i := 0; i < br; i++ {
				copy(c[(r0+i)*ldc:(r0+i)*ldc+cols], win[i*TileN32:])
			}
		}
		return
	}
	microKernel32Scalar(aTile, tileM, k, bTile, c, ldc, rows, cols)
}

// microKernel32Scalar is the portable row-at-a-time kernel: one row of
// the a-tile against the whole b-tile, the row's sixteen partial sums in
// scalar locals so the compiler keeps them in registers (an accumulator
// array would spill and pay a load+store per multiply-add).
func microKernel32Scalar(aTile []float32, tileM, k int, bTile []float32, c []float32, ldc, rows, cols int) {
	bt := bTile[:k*TileN32]
	for i := 0; i < rows; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		var t0, t1, t2, t3, t4, t5, t6, t7 float32
		ai := i
		for p := 0; p <= len(bt)-TileN32; p += TileN32 {
			av := aTile[ai]
			ai += tileM
			b16 := bt[p : p+TileN32 : p+TileN32]
			s0 += av * b16[0]
			s1 += av * b16[1]
			s2 += av * b16[2]
			s3 += av * b16[3]
			s4 += av * b16[4]
			s5 += av * b16[5]
			s6 += av * b16[6]
			s7 += av * b16[7]
			t0 += av * b16[8]
			t1 += av * b16[9]
			t2 += av * b16[10]
			t3 += av * b16[11]
			t4 += av * b16[12]
			t5 += av * b16[13]
			t6 += av * b16[14]
			t7 += av * b16[15]
		}
		row := c[i*ldc : i*ldc+cols]
		sums := [TileN32]float32{s0, s1, s2, s3, s4, s5, s6, s7, t0, t1, t2, t3, t4, t5, t6, t7}
		for j := range row {
			row[j] += sums[j]
		}
	}
}
