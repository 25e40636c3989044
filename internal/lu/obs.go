package lu

import (
	"sync/atomic"

	"phihpl/internal/metrics"
)

// Metrics hooks for the mixed-precision solver. All sinks default to nil:
// the uninstrumented SolveMixed pays a few atomic pointer loads and
// nil-safe counter calls per solve and allocates nothing. (Spans go
// through Options.Trace, as for every other driver in this package.)
var (
	mMixedSolves    atomic.Pointer[metrics.Counter]
	mRefineIters    atomic.Pointer[metrics.Counter]
	mMixedFallbacks atomic.Pointer[metrics.Counter]
)

// SetMetrics attaches a metrics registry to the mixed-precision solver
// (nil detaches). Counters, all kept by RefineMixed: lu.mixed_solves
// (mixed solves whose FP32 factorization finished — native and grid),
// lu.refine_iters (FP64 refinement correction solves), lu.mixed_fallbacks
// (those of the mixed solves that abandoned the FP32 factors).
func SetMetrics(reg *metrics.Registry) {
	mMixedSolves.Store(reg.Counter("lu.mixed_solves"))
	mRefineIters.Store(reg.Counter("lu.refine_iters"))
	mMixedFallbacks.Store(reg.Counter("lu.mixed_fallbacks"))
}
