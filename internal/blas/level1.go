// Package blas implements the dense linear-algebra kernels the Linpack
// benchmark is built from — DGEMM, DTRSM, DGETRF/DGETF2, DLASWP and the
// level-1 routines they use — in pure Go over row-major matrices.
//
// These are the *functional* counterparts of the paper's hand-tuned Knights
// Corner assembly: bit-real, residual-checked, and parallelized with
// goroutines. Their *performance* on the simulated Knights Corner machine
// is accounted separately by internal/kernels and internal/perfmodel.
package blas

import (
	"math"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

// IdamaxCol returns the row index (relative to the view) of the largest
// absolute value in column j of a, scanning rows [i0, a.Rows).
func IdamaxCol[T matrix.Float](a *matrix.Of[T], j, i0 int) int {
	if i0 >= a.Rows {
		return -1
	}
	best, bestAbs := i0, math.Abs(float64(a.At(i0, j)))
	for i := i0 + 1; i < a.Rows; i++ {
		if v := math.Abs(float64(a.At(i, j))); v > bestAbs {
			best, bestAbs = i, v
		}
	}
	return best
}

// Dscal scales v by alpha.
func Dscal(alpha float64, v []float64) { scal(alpha, v) }

func scal[T matrix.Float](alpha T, v []T) {
	for i := range v {
		v[i] *= alpha
	}
}

// Daxpy computes y += alpha*x.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Daxpy length mismatch")
	}
	axpy(alpha, x, y)
}

// axpy computes y[i] += alpha*x[i] for i < len(x); len(y) must be at
// least len(x). It is the one level-1 update primitive behind Daxpy, the
// Left-side substitutions of Trsm and the panel factorization. Its leaf is
// per type, each an AVX2 loop with a separately rounded multiply and add,
// run when that precision's kernel gate is open (pack.UseVector for
// float64; pack.VectorKernel32 and DisableVectorKernel32 for float32) and
// the pure-Go loop otherwise — bit-identical by construction, so the
// kernel gates switch speed, never results. The type test folds in each
// instantiation (matrix.Is64), so each instantiation contains a path to
// its own precision's assembly only.
func axpy[T matrix.Float](alpha T, x, y []T) {
	if len(x) > 0 {
		if matrix.Is64[T]() && pack.UseVector() {
			axpyVector(float64(alpha), matrix.Slice64(x), matrix.Slice64(y))
			return
		}
		if !matrix.Is64[T]() && pack.VectorKernel32() && !pack.DisableVectorKernel32 {
			axpyVector32(float32(alpha), matrix.Slice32(x), matrix.Slice32(y))
			return
		}
	}
	axpyScalar(alpha, x, y)
}

// axpyScalar is the portable loop and the oracle of the vector primitives.
// It is unrolled by four. A one-element body is short enough for its
// speed to hang on where the linker places it: before float32 had a
// vector primitive the whole mixed grid solve ran 13–18 % slower in a
// build that put that body across a 64-byte boundary. Each element is
// still y[i] + alpha·x[i], so the bits are the same.
func axpyScalar[T matrix.Float](alpha T, x, y []T) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] += alpha * xs[0]
		ys[1] += alpha * xs[1]
		ys[2] += alpha * xs[2]
		ys[3] += alpha * xs[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// SwapRows exchanges rows i and j of a (full width).
func SwapRows[T matrix.Float](a *matrix.Of[T], i, j int) {
	if i == j {
		return
	}
	ri, rj := a.Row(i), a.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
