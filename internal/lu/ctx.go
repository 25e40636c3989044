package lu

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/pool"
)

// protect runs fn behind a recover barrier, mirroring the pool's internal
// one: a panic is contained into a typed *pool.PanicError (worker = the
// lane that ran it, -1 for the caller) instead of propagating.
func protect(worker int, fn func()) (pe *pool.PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &pool.PanicError{Worker: worker, Value: v, Stack: string(debug.Stack())}
		}
	}()
	fn()
	return nil
}

// SequentialCtx factors a in place like Sequential, but observes ctx at
// every stage boundary: once ctx is done, no further panel is factored and
// ctx.Err() is returned, leaving the matrix partially factored. It runs
// the same blocked right-looking elimination through the shared task
// kernels, so a completed SequentialCtx run is bitwise identical to
// Sequential (and to the concurrent drivers). A panic inside a kernel is
// returned as a *pool.PanicError.
func SequentialCtx[T matrix.Float](ctx context.Context, a *matrix.Of[T], piv []int, opts Options) error {
	opts = opts.withDefaults(a.Cols)
	st := newState(a, opts)
	defer st.releaseAll()
	var firstErr error
	for s := 0; s < st.np; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pe := protect(-1, func() {
			if err := st.factorPanel(s); err != nil && firstErr == nil {
				firstErr = err
			}
			for p := s + 1; p < st.np; p++ {
				st.updatePanel(s, p, opts.Workers)
			}
		}); pe != nil {
			return pe
		}
	}
	st.finishLeftSwaps()
	st.globalPivots(piv)
	return firstErr
}

// SolveCtx factors a copy of A under ctx and solves A·x = b, returning the
// solution and the scaled HPL residual. driver is one of SequentialCtx,
// StaticLookaheadCtx or DynamicCtx. On cancellation the driver's ctx error
// is returned and no solution is produced.
func SolveCtx(ctx context.Context, a *matrix.Dense, b []float64, opts Options,
	driver func(context.Context, *matrix.Dense, []int, Options) error) (x []float64, residual float64, err error) {
	x, residual, _, _, err = SolveInPlace(ctx, a.Clone(), matrix.DenseSystem(a, b), opts, driver)
	return x, residual, err
}

// SolveInPlace is the solve core: it factors a, which must hold sys's
// matrix (rounded to T), in place under ctx with driver, and returns x
// with its scaled HPL residual against sys. Checked against
// matrix.SeededSystem, the solve holds one n×n matrix, as HPL does.
// seconds is the timed phase, factorization through the last
// substitution.
//
// At float64 x is the substitution of sys.B and rep is nil. At float32
// the factors are those of the mixed solve: x is refined in FP64 against
// sys (RefineMixed) and rep says how. When the single-precision factors
// cannot reach the HPL bar — a zero or subnormal FP32 pivot, stalled
// refinement, a non-finite iterate — rep carries the typed reason with
// FellBack set, x is nil and err is nil: the caller re-solves in FP64.
func SolveInPlace[T matrix.Float](ctx context.Context, a *matrix.Of[T], sys matrix.System, opts Options,
	driver func(context.Context, *matrix.Of[T], []int, Options) error) (x []float64, residual, seconds float64, rep *MixedReport, err error) {
	mixed := !matrix.Is64[T]()
	piv := make([]int, a.Rows)
	start := time.Now()
	if err = driver(ctx, a, piv, opts); err == nil {
		err = ctx.Err()
	}
	switch {
	case mixed && errors.Is(err, blas.ErrSingular):
		// A zero or subnormal FP32 pivot: RefineMixed reports the fallback.
	case err != nil:
		return nil, 0, 0, nil, err
	case !mixed:
		x = blas.LUSolve(a, piv, sys.B)
		seconds = time.Since(start).Seconds()
		return x, sys.Residual(x), seconds, nil, nil
	}
	solve := func(v []float64) []float64 { return blas.LUSolve(a, piv, v) }
	x, r, err := RefineMixed(ctx, sys, err, solve, opts.Trace)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	return x, r.Residual, time.Since(start).Seconds(), &r, nil
}
