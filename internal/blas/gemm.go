package blas

import (
	"sync"

	"phihpl/internal/matrix"
)

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(X) is X or Xᵀ
// according to transA/transB. Dimensions after op() must satisfy
// op(A): M×K, op(B): K×N, C: M×N. All matrices are row-major and may be
// views. The implementation is a cache-friendly i-k-j triple loop; use
// DgemmParallel for multi-core execution.
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
	dgemmRows(alpha, a, b, beta, c, 0, m)
}

// DgemmParallel is Dgemm with the rows of C partitioned across `workers`
// goroutines. workers <= 1 degrades to the serial path.
func DgemmParallel(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int) {
	m, k := opDims(a, transA)
	k2, n := opDims(b, transB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panic("blas: DgemmParallel dimension mismatch")
	}
	if transA {
		a = transpose(a)
	}
	if transB {
		b = transpose(b)
	}
	if workers <= 1 || m < 2*workers {
		dgemmRows(alpha, a, b, beta, c, 0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			dgemmRows(alpha, a, b, beta, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// dgemmRows computes rows [lo,hi) of C = alpha*A*B + beta*C (no transposes).
func dgemmRows(alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, lo, hi int) {
	k := a.Cols
	for i := lo; i < hi; i++ {
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
// Linpack; alpha=-1, beta=1 in BLAS terms.
//
// Updates deep enough to amortize packing (k >= PackedMinK) go through the
// packed-tile fast path; thin updates keep the reference loop of their
// type, whose lower setup cost wins for narrow panels. The crossover
// inspects k only — never m or n — because the drivers partition the same
// mathematical update into differently-shaped calls with equal k, and they
// must all land on the same arithmetic to stay bitwise identical.
//
// The two reference loops are per-type code, not one generic loop:
// dgemmRows folds every product straight into C, Sgemm sums a K-block
// into a temporary and adds it once. They round differently, so one merged
// loop would change the bits of every thin update in one precision.
func RankKUpdate[T matrix.Float](a, b, c *matrix.Of[T], workers int) {
	switch {
	case a.Cols >= PackedMinK:
		GemmPacked(false, false, -1, a, b, 1, c, workers)
	case matrix.Is64[T]():
		DgemmParallel(false, false, -1, a.As64(), b.As64(), 1, c.As64(), workers)
	default:
		SgemmDense(false, false, -1, a.As32(), b.As32(), 1, c.As32())
	}
}

// SRankKUpdate is RankKUpdate in single precision.
func SRankKUpdate(a, b, c *matrix.Dense32, workers int) { RankKUpdate(a, b, c, workers) }
