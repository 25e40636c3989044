package blas

import (
	"errors"
	"fmt"
	"math"

	"phihpl/internal/matrix"
)

// ErrSingular is returned when a zero pivot is encountered during
// factorization; the factor content up to that column is still valid.
// Match with errors.Is; errors.As against *SingularError recovers the
// offending column.
var ErrSingular = errors.New("blas: matrix is singular to working precision")

// minNormal is the smallest positive normal float64. A pivot below it is
// degenerate: dividing by it overflows the multipliers, so the column is
// treated exactly like a zero pivot.
const minNormal = 0x1p-1022

// SingularError reports the first column whose pivot was zero or
// subnormal. It matches ErrSingular under errors.Is.
type SingularError struct {
	Col int // absolute column index within the factored matrix
}

func (e *SingularError) Error() string {
	return fmt.Sprintf("blas: matrix is singular to working precision (zero/subnormal pivot in column %d)", e.Col)
}

// Is makes errors.Is(err, ErrSingular) succeed.
func (e *SingularError) Is(target error) bool { return target == ErrSingular }

// OffsetSingular rebases a SingularError's column by off (panel-relative
// to absolute); other errors pass through unchanged.
func OffsetSingular(err error, off int) error {
	var se *SingularError
	if errors.As(err, &se) && off != 0 {
		return &SingularError{Col: se.Col + off}
	}
	return err
}

// minNormal32 is the smallest positive normal float32; a float32 pivot
// below it is degenerate for the same reason (one policy, two thresholds).
const minNormal32 = 0x1p-126

func minNormalOf[T matrix.Float]() float64 {
	if matrix.Is64[T]() {
		return minNormal
	}
	return minNormal32
}

// Getf2 factors the m×n panel A = P·L·U with partial pivoting using
// unblocked right-looking elimination (the panel-factorization kernel,
// "DGETRF" in the paper's Gantt charts). L is unit lower triangular and is
// stored below the diagonal of A; U on and above. piv must have length
// min(m,n); piv[k] records the row (>= k) swapped into position k. A zero
// or subnormal pivot skips its column and reports a *SingularError
// (matching ErrSingular under errors.Is) — both precisions share one
// singularity vocabulary.
//
// Row swaps are applied to the *full width* of the supplied view, so pass a
// view restricted to the panel's columns and apply swaps to the remainder
// separately with Laswp — exactly how blocked LU and HPL stage their
// swapping.
//
// A strided view is factored in a pooled contiguous copy and written back:
// a panel of a large matrix has a power-of-two-ish row stride (12 288 B at
// n=1536) that maps every row onto the same few cache sets, and the
// elimination revisits each row once per column. Copying moves bits, not
// values, so the factors are those of the in-place elimination.
func Getf2[T matrix.Float](a *matrix.Of[T], piv []int) error {
	m, n := a.Rows, a.Cols
	if len(piv) != min(m, n) {
		panic("blas: Getf2 pivot slice has wrong length")
	}
	if m == 0 || n == 0 {
		return nil
	}
	if a.Stride == n {
		return getf2Packed(a.Data[:m*n], m, n, piv)
	}
	slab := prepackTake[T](m * n)
	w := *slab
	for i := 0; i < m; i++ {
		copy(w[i*n:(i+1)*n], a.Row(i))
	}
	err := getf2Packed(w, m, n, piv)
	for i := 0; i < m; i++ {
		copy(a.Row(i), w[i*n:(i+1)*n])
	}
	prepackPut(slab)
	return err
}

// Dgetf2 is Getf2 in double precision.
func Dgetf2(a *matrix.Dense, piv []int) error { return Getf2(a, piv) }

// Sgetf2 is Getf2 in single precision.
func Sgetf2(a *matrix.Dense32, piv []int) error { return Getf2(a, piv) }

// getf2Packed eliminates the contiguous row-major m×n panel w in one
// fused pass per column: each row below the pivot row gets its multiplier,
// its rank-1 update, and — while the row is still in cache — its candidacy
// for the next column's pivot. Per element this is the arithmetic of the
// textbook column-at-a-time loop (scale the column, then update the rows):
// a row's multiplier and update depend only on that row and the pivot row,
// and the next pivot search reads column k+1 after every row's update,
// in ascending row order with the same strict comparison, so pivots, ties
// (lowest row wins), the NaN rule (a NaN is chosen only in the search's
// first row) and every factor bit are unchanged. Magnitudes are compared
// in float64, which orders widened float32 values exactly as float32 does.
func getf2Packed[T matrix.Float](w []T, m, n int, piv []int) error {
	var err error
	tiny := minNormalOf[T]()
	next := -1 // pivot row of column k when the previous pass already found it
	for k := range piv {
		p := next
		next = -1
		if p < 0 {
			p = k
			bestAbs := math.Abs(float64(w[k*n+k]))
			for i := k + 1; i < m; i++ {
				if v := math.Abs(float64(w[i*n+k])); v > bestAbs {
					p, bestAbs = i, v
				}
			}
		}
		piv[k] = p
		if pv := w[p*n+k]; pv == 0 || math.Abs(float64(pv)) < tiny {
			// Zero or subnormal pivot: dividing would produce Inf/garbage
			// multipliers, so skip the column and report it.
			if err == nil {
				err = &SingularError{Col: k}
			}
			continue
		}
		rowK := w[k*n : (k+1)*n]
		if p != k {
			rowP := w[p*n : (p+1)*n]
			for j, v := range rowK {
				rowK[j], rowP[j] = rowP[j], v
			}
		}
		akk := rowK[k]
		tail := rowK[k+1:]
		search := k+1 < len(piv)
		best, bestAbs := k+1, 0.0
		for i := k + 1; i < m; i++ {
			rowI := w[i*n : (i+1)*n]
			lik := rowI[k] / akk
			rowI[k] = lik
			// A zero multiplier leaves the row alone (0·Inf must not
			// poison it); anything else is y += (−l)·x, which rounds
			// exactly like y −= l·x.
			if lik != 0 {
				axpy(-lik, tail, rowI[k+1:])
			}
			if search {
				if v := math.Abs(float64(rowI[k+1])); i == k+1 || v > bestAbs {
					best, bestAbs = i, v
				}
			}
		}
		if search {
			next = best
		}
	}
	return err
}

// Laswp applies the row interchanges recorded in piv (as produced by
// Getf2, offset-relative) to the rows of a: for k = 0..len(piv)-1, rows
// k+offset and piv[k]+offset are swapped. This is the "DLASWP" kernel of
// the paper's execution profiles.
func Laswp[T matrix.Float](a *matrix.Of[T], piv []int, offset int) {
	for k, p := range piv {
		if p != k {
			SwapRows(a, k+offset, p+offset)
		}
	}
}

// Dlaswp is Laswp in double precision.
func Dlaswp(a *matrix.Dense, piv []int, offset int) { Laswp(a, piv, offset) }

// Getrf computes the blocked right-looking LU factorization with partial
// pivoting of the square (or rectangular m>=n) matrix A in place, with
// block size nb and the trailing updates spread over `workers`. On a
// zero/subnormal pivot the factorization continues (the column is
// skipped) and the first *SingularError is returned. The DAG-scheduled and
// look-ahead drivers in internal/lu produce identical factors (they
// reorder independent work only).
//
// piv must have length min(m,n) and records global row swaps
// (piv[k] is the absolute row index swapped with row k).
func Getrf[T matrix.Float](a *matrix.Of[T], piv []int, nb, workers int) error {
	m, n := a.Rows, a.Cols
	mn := min(m, n)
	if len(piv) != mn {
		panic("blas: Getrf pivot slice has wrong length")
	}
	if nb < 1 {
		nb = 64
	}
	workers = max(workers, 1)
	var firstErr error
	for j := 0; j < mn; j += nb {
		jb := min(nb, mn-j)
		// Factor the current panel A[j:m, j:j+jb].
		panel := a.View(j, j, m-j, jb)
		localPiv := make([]int, jb)
		if err := Getf2(panel, localPiv); err != nil && firstErr == nil {
			firstErr = OffsetSingular(err, j)
		}
		// Record global pivots and apply the swaps to the columns outside
		// the panel (left of j and right of j+jb).
		for k, p := range localPiv {
			piv[j+k] = p + j
			if p != k {
				if j > 0 {
					SwapRows(a.View(0, 0, m, j), j+k, j+p)
				}
				if j+jb < n {
					SwapRows(a.View(0, j+jb, m, n-j-jb), j+k, j+p)
				}
			}
		}
		if j+jb < n {
			// U block row: solve L11 · U12 = A12.
			l11 := a.View(j, j, jb, jb)
			u12 := a.View(j, j+jb, jb, n-j-jb)
			Trsm(Left, Lower, false, Unit, 1, l11, u12)
			// Trailing update: A22 -= L21 · U12.
			if j+jb < m {
				l21 := a.View(j+jb, j, m-j-jb, jb)
				a22 := a.View(j+jb, j+jb, m-j-jb, n-j-jb)
				RankKUpdate(l21, u12, a22, workers)
			}
		}
	}
	return firstErr
}

// Dgetrf is the reference single-threaded FP64 driver: Getrf on one
// worker.
func Dgetrf(a *matrix.Dense, piv []int, nb int) error { return Getrf(a, piv, nb, 1) }

// Sgetrf is Getrf in single precision, the factorization half of the
// HPL-MxP scheme: factor at SGEMM speed, then recover double-precision
// accuracy with FP64 refinement (lu.SolveMixed).
func Sgetrf(a *matrix.Dense32, piv []int, nb, workers int) error { return Getrf(a, piv, nb, workers) }

// LUSolve solves A·x = b in double precision given the in-place LU factors
// and pivots produced by Getrf (or the drivers in internal/lu). It applies
// the pivots to a copy of b, then runs the forward (unit lower) and
// backward (upper) substitutions with every factor entry widened to
// float64, which is exact. Over float32 factors this is the correction
// solve of FP64 iterative refinement — O(n²) double-precision work per
// step against factors computed at FP32 speed.
func LUSolve[T matrix.Float](lu *matrix.Of[T], piv []int, b []float64) []float64 {
	if lu.Cols != lu.Rows {
		panic("blas: LUSolve dimension mismatch")
	}
	return LUSolveRuns(lu.Rows, func(i, j int) []T { return lu.Row(i)[j:] }, piv, b)
}

// LUSolveRuns is LUSolve over n×n factors that are not one matrix — a
// block-cyclic layout spread over several local matrices, say. run(i, j)
// returns a contiguous run of the factors' row i starting at column j:
// at least one element, and none past column n−1. Each substitution
// consumes a row in column order, one multiply and one subtract per
// element, so the result is bitwise LUSolve's however the rows are cut
// into runs.
func LUSolveRuns[T matrix.Float](n int, run func(i, j int) []T, piv []int, b []float64) []float64 {
	if len(b) != n || len(piv) != n {
		panic("blas: LUSolve dimension mismatch")
	}
	x := make([]float64, n)
	copy(x, b)
	for k, p := range piv {
		if p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward: L·y = Pb.
	for i := 0; i < n; i++ {
		x[i] = subRuns(x[i], run, i, 0, i, x)
	}
	// Backward: U·x = y.
	for i := n - 1; i >= 0; i-- {
		x[i] = subRuns(x[i], run, i, i+1, n, x) / float64(run(i, i)[0])
	}
	return x
}

// subRuns returns s − Σ row_i[j]·x[j] over j in [lo, hi), subtracting the
// terms in column order.
func subRuns[T matrix.Float](s float64, run func(i, j int) []T, i, lo, hi int, x []float64) float64 {
	for j := lo; j < hi; {
		seg := run(i, j)
		seg = seg[:min(len(seg), hi-j)]
		xs := x[j : j+len(seg)]
		for t, v := range seg {
			s -= float64(v) * xs[t]
		}
		j += len(seg)
	}
	return s
}
