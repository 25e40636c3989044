package blas

import "phihpl/internal/matrix"

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(X) is X or Xᵀ
// according to transA/transB. Dimensions after op() must satisfy
// op(A): M×K, op(B): K×N, C: M×N. All matrices are row-major and may be
// views. The implementation is a cache-friendly i-k-j triple loop, kept
// as the oracle of the packed path; DgemmPacked is the fast one.
func Dgemm(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, k := opDims(a, transA)
	k2, n := opDims(b, transB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panic("blas: Dgemm dimension mismatch")
	}
	// Materialize transposed operands once; the quadratic copy is amortized
	// by the cubic multiply, mirroring how the packing stage of the paper's
	// DGEMM re-lays data before compute.
	if transA {
		a = transpose(a)
	}
	if transB {
		b = transpose(b)
	}
	dgemmRows(alpha, a, b, beta, c)
}

// dgemmRows computes C = alpha*A*B + beta*C (no transposes) row by row.
func dgemmRows(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	k := a.Cols
	for i := 0; i < c.Rows; i++ {
		ci := c.Row(i)
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		if alpha == 0 {
			continue
		}
		ai := a.Row(i)
		for p := 0; p < k; p++ {
			// No zero-skip here: dropping the inner loop when aip == 0
			// would swallow NaN/Inf from B (IEEE demands 0·NaN = NaN) and
			// make the reference and packed paths diverge on special
			// values.
			aip := alpha * ai[p]
			bp := b.Row(p)
			for j, bv := range bp {
				ci[j] += aip * bv
			}
		}
	}
}

// opDims returns the dimensions of op(X).
func opDims[T matrix.Float](x *matrix.Of[T], trans bool) (r, c int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

// transpose returns a compact copy of xᵀ.
func transpose[T matrix.Float](x *matrix.Of[T]) *matrix.Of[T] {
	t := matrix.New[T](x.Cols, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			t.Set(j, i, v)
		}
	}
	return t
}

// RankKUpdate computes C -= A*B (the LU trailing update C = C - L·U) using
// the given number of workers. It is the hot path of both native and hybrid
// Linpack; alpha=-1, beta=1 in BLAS terms. Every k takes the packed GEMM:
// one arithmetic for every update is what lets the drivers split the same
// mathematical update into differently-shaped calls and still agree bit
// for bit, and the packed path was the faster one at every depth measured,
// down to k = 4 (DESIGN.md §24).
func RankKUpdate[T matrix.Float](a, b, c *matrix.Of[T], workers int) {
	GemmPacked(false, false, -1, a, b, 1, c, workers)
}

// SRankKUpdate is RankKUpdate in single precision.
func SRankKUpdate(a, b, c *matrix.Dense32, workers int) { RankKUpdate(a, b, c, workers) }
