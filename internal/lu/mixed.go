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
// in single precision (the float32 instantiation of this package's
// drivers, trailing updates through the packed SGEMM), then recover a
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

// SolveMixed factors a single-precision copy of A with the DAG scheduler
// (Dynamic at float32, whose factors are bitwise blas.Getrf's at float32)
// and solves A·x = b with FP64 iterative refinement against the FP32
// factors: SolveInPlace at float32, checked against A itself. On success
// the report carries the step count and final scaled residual. When the
// FP32 route cannot reach the HPL bar, SolveMixed re-solves with the FP64
// Sequential driver and reports the typed reason; the error is non-nil
// only when that fallback itself fails (e.g. the matrix is singular in
// double precision too).
//
// Spans (when opts.Trace is set): the driver's "PanelFact"/"Update" task
// spans and "Refine" per correction solve (worker 0, iter = step index).
// Counters (see SetMetrics): lu.mixed_solves, lu.refine_iters,
// lu.mixed_fallbacks.
func SolveMixed(a *matrix.Dense, b []float64, opts Options) (x []float64, residual float64, rep MixedReport, err error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("lu: matrix must be square, got %dx%d", a.Rows, a.Cols))
	}
	if len(b) != a.Rows {
		panic("lu: SolveMixed right-hand side has wrong length")
	}
	ctx := context.Background()
	x, residual, _, r, err := SolveInPlace(ctx, a.ToDense32(), matrix.DenseSystem(a, b), opts, DynamicCtx[float32])
	if err != nil {
		return nil, 0, rep, err
	}
	rep = *r
	if rep.FellBack {
		x, residual, err = SolveCtx(ctx, a, b, opts, SequentialCtx)
		rep.Residual = residual
	}
	return x, residual, rep, err
}

// RefineMixed is the FP64 iterative-refinement ladder against prefactored
// FP32 LU factors, shared by the shared-memory mixed solve and the 2D
// distributed drivers. sys is the original FP64 system — held in memory or
// regenerated from its seed on each pass — factorErr is the FP32
// factorization's error, non-nil only for a zero or subnormal pivot (the
// matrix may still be regular in FP64), and solve applies the factors:
// it returns the FP64 solution of (P·L·U)·y = r, blas.LUSolve or
// blas.LUSolveRuns over the FP32 factors of (A rounded to single precision)
// and their pivots. RefineMixed substitutes b through the factors, then
// refines: one pass over sys gives the iterate's scaled residual and its
// FP64 residual vector r = b − A·x, the correction is solved against the
// factors, x += δ, until the scaled residual is a decade under the HPL
// bar, the step budget (DefaultRefineSteps) runs out, or progress stalls.
// A stalled-or-capped iterate that still clears the HPL bar is accepted.
//
// On acceptance rep carries the step count and x's scaled residual;
// otherwise x is nil and rep says what went wrong (FellBack,
// FallbackSingular, FallbackStalled or FallbackNonFinite) and the caller
// picks its own FP64 fallback — re-solving locally (SolveInPlace's
// callers) or re-running the distributed FP64 path (the 2D drivers). err
// is non-nil only for ctx cancellation, observed between refinement steps.
// Spans (worker 0): "Refine" per correction solve. Counters: every mixed
// solve, native or grid, passes here once, so lu.mixed_solves,
// lu.mixed_fallbacks and lu.refine_iters count them all.
func RefineMixed(ctx context.Context, sys matrix.System, factorErr error, solve func(r []float64) []float64, rec *trace.Recorder) (x []float64, rep MixedReport, err error) {
	mMixedSolves.Load().Inc()
	defer func() {
		if rep.FellBack {
			mMixedFallbacks.Load().Inc()
		}
	}()
	if factorErr != nil {
		return nil, MixedReport{FellBack: true, Reason: FallbackSingular}, nil
	}
	x = solve(sys.B)
	prev := math.Inf(1)
	var t0 float64
	for {
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
		r, res := sys.Sweep(x)
		// No longer improving, or out of budget: accept the iterate if it
		// clears the HPL bar anyway, otherwise give up on the FP32 factors.
		stop := (res >= prev/2 || rep.Iterations >= DefaultRefineSteps) && rep.Iterations > 0
		switch {
		case math.IsNaN(res) || math.IsInf(res, 0):
			return nil, MixedReport{Iterations: rep.Iterations, FellBack: true, Reason: FallbackNonFinite}, nil
		case res <= refineTarget || stop && res < matrix.ResidualThreshold:
			rep.Residual = res
			return x, rep, nil
		case stop:
			return nil, MixedReport{Iterations: rep.Iterations, FellBack: true, Reason: FallbackStalled}, nil
		}
		prev = res

		if rec != nil {
			t0 = rec.Start()
		}
		delta := solve(r)
		blas.Daxpy(1, delta, x)
		rep.Iterations++
		mRefineIters.Load().Inc()
		if rec != nil {
			rec.Since(0, "Refine", rep.Iterations-1, t0)
		}
	}
}
