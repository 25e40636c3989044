package phihpl

import (
	"context"

	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/pool"
	"phihpl/internal/trace"
)

// PanicError is the typed containment of a panic that escaped a worker
// goroutine anywhere in the concurrent layers (thread-group pools, the LU
// schedulers, the offload engine): the worker lane that panicked (-1 for
// the caller), the recovered value, and the stack at the panic site. It is
// returned as an ordinary error — a panicking task never crashes the
// process. errors.As against *PanicError recovers the details.
type PanicError = pool.PanicError

// SolveContext is Solve under a context: the factorization observes ctx at
// every task-issue or stage boundary, so cancelling stops the solve
// promptly (partial work is discarded) and ctx.Err() is returned. An
// already-cancelled context returns immediately without touching the
// system. All worker goroutines are always joined before return.
func SolveContext(ctx context.Context, n int, sched Scheduler, nb, workers int, seed uint64) (SolveResult, error) {
	return SolveTracedContext(ctx, n, sched, nb, workers, seed, nil)
}

// SolveTracedContext is SolveContext with a span recorder attached to the
// native LU driver (see SolveTraced). A nil recorder makes this identical
// to SolveContext.
func SolveTracedContext(ctx context.Context, n int, sched Scheduler, nb, workers int, seed uint64, rec *trace.Recorder) (SolveResult, error) {
	if err := ctx.Err(); err != nil {
		return SolveResult{}, err
	}
	driver := lu.SequentialCtx
	switch sched {
	case StaticLookahead:
		driver = lu.StaticLookaheadCtx
	case DynamicDAG:
		driver = lu.DynamicCtx
	}
	a := matrix.RandomGeneral(n, n, seed)
	x, res, secs, err := lu.SolveInPlace(ctx, a, matrix.SeededSystem(n, seed), lu.Options{NB: nb, Workers: workers, Trace: rec}, driver)
	if err != nil {
		return SolveResult{}, err
	}
	return SolveResult{X: x, Residual: res, Passed: passed(res), N: n, Seconds: secs}, nil
}

// SolveMixedPrecisionCtx is SolveMixedPrecision under a context, observed
// at the mixed solver's stage boundaries (before the FP32 factorization,
// between refinement steps, and through the cancellable FP64 fallback).
// A nil recorder disables tracing.
func SolveMixedPrecisionCtx(ctx context.Context, n int, mode PrecisionMode, nb, workers int, seed uint64, rec *trace.Recorder) (SolveResult, error) {
	if mode != PrecisionMixed {
		return SolveTracedContext(ctx, n, DynamicDAG, nb, workers, seed, rec)
	}
	if err := ctx.Err(); err != nil {
		return SolveResult{}, err
	}
	a, b := matrix.RandomSystem(n, seed)
	x, res, rep, err := lu.SolveMixedCtx(ctx, a, b, lu.Options{NB: nb, Workers: workers, Trace: rec})
	if err != nil {
		return SolveResult{}, err
	}
	return SolveResult{X: x, Residual: res, Passed: passed(res), N: n, Refine: &rep}, nil
}

// SolveDistributedCtx is SolveDistributed under a context: every rank
// observes cancellation at its stage boundary, the world unwinds cleanly,
// and the plain ctx.Err() is returned once ctx is done.
func SolveDistributedCtx(ctx context.Context, n, nb, ranks int, seed uint64) (SolveResult, error) {
	return fromDist(hpl.SolveDistributedCtx(ctx, n, nb, ranks, seed))
}

// SolveDistributed2DCtx is SolveDistributed2D under a context (see
// SolveDistributedCtx for the cancellation contract).
func SolveDistributed2DCtx(ctx context.Context, n, nb, p, q int, seed uint64) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DCtx(ctx, n, nb, p, q, seed))
}

// SolveDistributed2DModeCtx is SolveDistributed2DMode under a context,
// optionally recording one protocol span per stage phase (panel, swap,
// Lbcast, Ubcast, GEMM) into rec — the real-execution counterpart of the
// paper's Figure 8/9 pipeline Gantt charts. A nil recorder disables
// tracing.
func SolveDistributed2DModeCtx(ctx context.Context, n, nb, p, q int, seed uint64, mode LookaheadMode, rec *trace.Recorder) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DModeCtx(ctx, n, nb, p, q, seed, mode, rec))
}

// SolveHybrid2DCtx is SolveHybrid2D under a context: cancellation reaches
// both the rank stage boundaries and the offload engine's tile loop, so a
// rank parked in a long trailing update also unwinds promptly.
func SolveHybrid2DCtx(ctx context.Context, n, nb, p, q int, seed uint64) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DHybridCtx(ctx, n, nb, p, q, seed))
}

// SolveHybrid2DModeCtx is SolveHybrid2DMode under a context, optionally
// recording protocol spans into rec (see SolveDistributed2DModeCtx).
func SolveHybrid2DModeCtx(ctx context.Context, n, nb, p, q int, seed uint64, mode LookaheadMode, rec *trace.Recorder) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DHybridModeCtx(ctx, n, nb, p, q, seed, mode, rec))
}

// SolveDistributed2DPrecisionCtx is SolveDistributed2DPrecision under a
// context, optionally recording protocol spans into rec. Cancellation is
// observed at every rank's stage boundary and between refinement steps.
func SolveDistributed2DPrecisionCtx(ctx context.Context, n, nb, p, q int, seed uint64, mode LookaheadMode, prec PrecisionMode, rec *trace.Recorder) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DPrecisionCtx(ctx, n, nb, p, q, seed, mode, prec, rec))
}

// SolveHybrid2DPrecisionCtx is SolveHybrid2DPrecision under a context,
// optionally recording protocol spans into rec.
func SolveHybrid2DPrecisionCtx(ctx context.Context, n, nb, p, q int, seed uint64, mode LookaheadMode, prec PrecisionMode, rec *trace.Recorder) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DHybridPrecisionCtx(ctx, n, nb, p, q, seed, mode, prec, rec))
}

// SolveFaultTolerant2DCtx is SolveFaultTolerant2D under a context.
// Cancellation is not a fault: it never consumes a restart, is never
// wrapped in a *FaultError, and always surfaces as the plain ctx.Err().
func SolveFaultTolerant2DCtx(ctx context.Context, n, nb, p, q int, seed uint64, cfg FTConfig) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DFTCtx(ctx, n, nb, p, q, seed, cfg))
}
