package blas

import "phihpl/internal/matrix"

// Sgemm computes C = alpha*A*B + beta*C in single precision over flat
// row-major buffers: A is m×k with leading dimension lda, B is k×n with
// ldb, C is m×n with ldc. The paper evaluates SGEMM alongside DGEMM in
// Table II; this routine is the always-available reference oracle for the
// packed single-precision fast path (SgemmPacked).
//
// The accumulation is grouped by the same K-block boundaries as the
// packed path (a function of k alone): each element's contribution from
// one K-block is summed into a temporary in ascending p — every product
// (alpha·a)·b performed unconditionally, so NaN and Inf propagate per
// IEEE — and the block sum is added into C exactly once. With the scalar
// micro-kernel active, SgemmPacked is bit-for-bit identical to this loop;
// the fused vector kernel differs only in product rounding.
func Sgemm(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	if lda < k || ldb < n || ldc < n {
		panic("blas: Sgemm leading dimension too small")
	}
	// Degenerate-shape guard: each buffer is validated independently, so a
	// zero-size dimension elsewhere cannot mask an undersized buffer that
	// this call still touches (e.g. k == 0 with a short C, which the beta
	// scaling below would overrun).
	if m > 0 && k > 0 && len(a) < (m-1)*lda+k {
		panic("blas: Sgemm buffer too small")
	}
	if k > 0 && n > 0 && len(b) < (k-1)*ldb+n {
		panic("blas: Sgemm buffer too small")
	}
	if m > 0 && n > 0 && len(c) < (m-1)*ldc+n {
		panic("blas: Sgemm buffer too small")
	}
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	tmp := make([]float32, n)
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		for k0 := 0; k0 < k; k0 += packKC {
			kb := k - k0
			if kb > packKC {
				kb = packKC
			}
			for j := range tmp {
				tmp[j] = 0
			}
			for p := k0; p < k0+kb; p++ {
				aip := alpha * ai[p]
				bp := b[p*ldb : p*ldb+n]
				for j, bv := range bp {
					tmp[j] += aip * bv
				}
			}
			for j := range ci {
				ci[j] += tmp[j]
			}
		}
	}
}

// SgemmDense is Sgemm over matrix.Dense32 operands with op() transposes,
// the shape-checked reference entry point mirroring Dgemm:
// C = alpha*op(A)*op(B) + beta*C. Transposed operands are materialized
// once; the arithmetic is exactly Sgemm's K-block-grouped loop.
func SgemmDense(transA, transB bool, alpha float32, a, b *matrix.Dense32, beta float32, c *matrix.Dense32) {
	m, k := opDims(a, transA)
	k2, n := opDims(b, transB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panic("blas: SgemmDense dimension mismatch")
	}
	if m == 0 || n == 0 {
		return
	}
	if transA {
		a = transpose(a)
	}
	if transB {
		b = transpose(b)
	}
	Sgemm(m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
}
