package lu

import (
	"context"
	"fmt"
	"math"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/trace"
)

// The mixed-precision solve (HPL-MxP / HPL-AI scheme): factor A entirely
// in single precision through the packed SGEMM fast path, then recover a
// double-precision-quality solution with FP64 iterative refinement — the
// residual r = b − A·x̂ computed in float64 against the original matrix,
// the correction solved in float64 against the FP32 factors (O(n²) per
// step), x̂ += δ. The factorization does O(n³) work at FP32 speed; the
// refinement does O(n²) work per step in FP64, and for matrices whose
// condition number is within FP32's reach (κ ≲ 1/eps32 ≈ 10⁷) a handful
// of steps lands the scaled HPL residual at the same level as the FP64
// solve. When refinement cannot get there — the matrix is singular in
// FP32, the residual stalls above the bar, or the iterate goes non-finite
// — the solver falls back to the FP64 path automatically and says so in a
// typed report: the caller always gets either a passing residual or an
// explicit fallback, never a silent wrong answer.

// PrecisionMode selects the arithmetic of the shared-memory solve.
type PrecisionMode int

const (
	// PrecisionFP64 is the classical all-double path (Solve).
	PrecisionFP64 PrecisionMode = iota
	// PrecisionMixed is FP32 factorization + FP64 iterative refinement
	// (SolveMixed), with automatic fallback to PrecisionFP64.
	PrecisionMixed
)

// String returns the flag spelling of the mode.
func (m PrecisionMode) String() string {
	switch m {
	case PrecisionFP64:
		return "fp64"
	case PrecisionMixed:
		return "mixed"
	}
	return fmt.Sprintf("PrecisionMode(%d)", int(m))
}

// ParsePrecisionMode parses "fp64" or "mixed".
func ParsePrecisionMode(s string) (PrecisionMode, error) {
	switch s {
	case "fp64":
		return PrecisionFP64, nil
	case "mixed":
		return PrecisionMixed, nil
	}
	return 0, fmt.Errorf("lu: unknown precision mode %q (want fp64 or mixed)", s)
}

// FallbackReason says why a mixed solve abandoned its FP32 factors and
// re-solved in FP64. FallbackNone means the refined FP32 result was
// accepted.
type FallbackReason int

const (
	// FallbackNone: no fallback, the refined solution was accepted.
	FallbackNone FallbackReason = iota
	// FallbackSingular: the FP32 factorization hit a zero/subnormal pivot
	// (the matrix may still be comfortably non-singular in FP64).
	FallbackSingular
	// FallbackStalled: refinement stopped improving while the scaled
	// residual was still at or above the HPL bar.
	FallbackStalled
	// FallbackNonFinite: the residual or iterate went NaN/Inf.
	FallbackNonFinite
)

// String names the reason.
func (r FallbackReason) String() string {
	switch r {
	case FallbackNone:
		return "none"
	case FallbackSingular:
		return "fp32-singular"
	case FallbackStalled:
		return "refinement-stalled"
	case FallbackNonFinite:
		return "non-finite"
	}
	return fmt.Sprintf("FallbackReason(%d)", int(r))
}

// MixedReport describes how a mixed-precision solve went: how many FP64
// refinement steps ran against the FP32 factors, the scaled HPL residual
// of the returned solution, and — when the FP32 path could not reach the
// bar — the typed reason the solver fell back to FP64.
type MixedReport struct {
	// Iterations is the number of refinement correction solves performed
	// (0 when the initial substitution already met the target, or when
	// the factorization itself failed).
	Iterations int
	// Residual is the scaled HPL residual of the returned solution.
	Residual float64
	// FellBack reports that the solution came from the FP64 path.
	FellBack bool
	// Reason is FallbackNone when FellBack is false.
	Reason FallbackReason
}

// DefaultRefineSteps caps the refinement loop. Well-conditioned systems
// converge in 2–4 steps; a system still above the bar after this many is
// declared stalled and falls back.
const DefaultRefineSteps = 30

// refineTarget is the scaled residual refinement drives for: one decade
// under the HPL bar, so an accepted mixed solve PASSES with margin rather
// than grazing the threshold.
const refineTarget = matrix.ResidualThreshold / 16

// SolveMixed factors a single-precision copy of A (blocked FP32 LU with
// partial pivoting, trailing updates through the packed SGEMM fast path)
// and solves A·x = b with FP64 iterative refinement against the FP32
// factors. On success the report carries the step count and final scaled
// residual. When the FP32 route cannot reach the HPL bar, SolveMixed
// re-solves with the FP64 Sequential driver and reports the typed reason;
// the error is non-nil only when that fallback itself fails (e.g. the
// matrix is singular in double precision too).
//
// Spans (when opts.Trace is set, worker 0): "SFactor" for the FP32
// factorization, "Refine" per correction solve (iter = step index),
// "FP64Fallback" for a fallback re-solve. Counters (see SetMetrics):
// lu.mixed_solves, lu.refine_iters, lu.mixed_fallbacks.
func SolveMixed(a *matrix.Dense, b []float64, opts Options) (x []float64, residual float64, rep MixedReport, err error) {
	return SolveMixedCtx(context.Background(), a, b, opts)
}

// SolveMixedCtx is SolveMixed under a context, observed at the solver's
// stage boundaries: before the FP32 factorization, between refinement
// steps, and before a fallback re-solve (which then runs the cancellable
// SequentialCtx driver). The factorization itself is one uninterruptible
// stage. On cancellation ctx.Err() is returned and no solution is
// produced.
func SolveMixedCtx(ctx context.Context, a *matrix.Dense, b []float64, opts Options) (x []float64, residual float64, rep MixedReport, err error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("lu: matrix must be square, got %dx%d", a.Rows, a.Cols))
	}
	if len(b) != a.Rows {
		panic("lu: SolveMixed right-hand side has wrong length")
	}
	opts = opts.withDefaults(a.Cols)
	mMixedSolves.Load().Inc()
	rec := opts.Trace
	if err := ctx.Err(); err != nil {
		return nil, 0, rep, err
	}

	a32 := a.ToDense32()
	piv := make([]int, a.Rows)
	var t0 float64
	if rec != nil {
		t0 = rec.Start()
	}
	factErr := blas.Sgetrf(a32, piv, opts.NB, opts.Workers)
	if rec != nil {
		rec.Since(0, "SFactor", 0, t0)
	}
	if factErr != nil {
		return fallbackFP64(ctx, a, b, opts, rep, FallbackSingular)
	}

	solve := func(r []float64) []float64 { return blas.LUSolve(a32, piv, r) }
	x, residual, rep.Iterations, rep.Reason, err = RefineMixed(ctx, matrix.DenseSystem(a, b), solve, rec)
	if err != nil {
		return nil, 0, rep, err
	}
	if rep.Reason != FallbackNone {
		why := rep.Reason
		rep.Reason = FallbackNone // fallbackFP64 stamps it
		return fallbackFP64(ctx, a, b, opts, rep, why)
	}
	rep.Residual = residual
	return x, residual, rep, nil
}

// RefineMixed is the FP64 iterative-refinement ladder against prefactored
// FP32 LU factors, shared by the shared-memory mixed solve and the 2D
// distributed drivers. sys is the original FP64 system — held in memory or
// regenerated from its seed on each pass — and solve applies the factors:
// it returns the FP64 solution of (P·L·U)·y = r, blas.LUSolve or
// blas.LUSolveRuns over the FP32 factors of (A rounded to single precision)
// and their pivots. RefineMixed substitutes b through the factors, then
// refines: one pass over sys gives the iterate's scaled residual and its
// FP64 residual vector r = b − A·x, the correction is solved against the
// factors, x += δ, until the scaled residual is a decade under the HPL
// bar, the step budget (DefaultRefineSteps) runs out, or progress stalls.
// A stalled-or-capped iterate that still clears the HPL bar is accepted.
//
// On acceptance why is FallbackNone; otherwise why says what went wrong
// (FallbackStalled, FallbackNonFinite) and the caller picks its own FP64
// fallback — re-solving locally (SolveMixed) or re-running the distributed
// FP64 path (the 2D drivers). err is non-nil only for ctx cancellation,
// observed between refinement steps. Spans (worker 0): "Refine" per
// correction solve. Counter: lu.refine_iters.
func RefineMixed(ctx context.Context, sys matrix.System, solve func(r []float64) []float64, rec *trace.Recorder) (x []float64, res float64, iters int, why FallbackReason, err error) {
	x = solve(sys.B)
	prev := math.Inf(1)
	var t0 float64
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, iters, FallbackNone, err
		}
		var r []float64
		r, res = sys.Sweep(x)
		if math.IsNaN(res) || math.IsInf(res, 0) {
			return nil, 0, iters, FallbackNonFinite, nil
		}
		if res <= refineTarget {
			return x, res, iters, FallbackNone, nil
		}
		stalled := res >= prev/2
		if (stalled || iters >= DefaultRefineSteps) && iters > 0 {
			// No longer improving (or out of budget). Accept the iterate if
			// it clears the HPL bar anyway; otherwise give up on the FP32
			// factors.
			if res < matrix.ResidualThreshold {
				return x, res, iters, FallbackNone, nil
			}
			return nil, 0, iters, FallbackStalled, nil
		}
		prev = res

		if rec != nil {
			t0 = rec.Start()
		}
		delta := solve(r)
		blas.Daxpy(1, delta, x)
		iters++
		mRefineIters.Load().Inc()
		if rec != nil {
			rec.Since(0, "Refine", iters-1, t0)
		}
	}
}

// fallbackFP64 re-solves in double precision with the cancellable
// sequential driver and stamps the report with the typed reason.
func fallbackFP64(ctx context.Context, a *matrix.Dense, b []float64, opts Options, rep MixedReport, why FallbackReason) ([]float64, float64, MixedReport, error) {
	rep.FellBack = true
	rep.Reason = why
	mMixedFallbacks.Load().Inc()
	rec := opts.Trace
	var t0 float64
	if rec != nil {
		t0 = rec.Start()
	}
	x, res, err := SolveCtx(ctx, a, b, opts, SequentialCtx)
	if rec != nil {
		rec.Since(0, "FP64Fallback", 0, t0)
	}
	if err != nil {
		return nil, 0, rep, err
	}
	rep.Residual = res
	return x, res, rep, nil
}
