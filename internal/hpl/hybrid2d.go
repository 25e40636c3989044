package hpl

import (
	"context"

	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/offload"
	"phihpl/internal/trace"
)

// SolveDistributed2DHybrid is SolveDistributed2D with the trailing updates
// routed through the real offload engine: every owned block column's
// trailing update A(·,J) -= L21·U12(J) is one offload.Compute call, whose "card"
// worker packs operands into the Knights Corner tile layout and multiplies
// with the register-blocked micro-kernel while a host worker steals tiles
// from the other end — the functional composition of Sections III and V.
//
// The result passes the HPL residual test; unlike the plain driver it is
// not bitwise identical to the sequential algorithm (the packed micro-
// kernel accumulates in a different order), so tests compare solutions to
// within floating-point round-off.
func SolveDistributed2DHybrid(n, nb, p, q int, seed uint64) (DistResult, error) {
	return SolveDistributed2DHybridCtx(context.Background(), n, nb, p, q, seed)
}

// SolveDistributed2DHybridMode is SolveDistributed2DHybrid with an
// explicit look-ahead schedule.
func SolveDistributed2DHybridMode(n, nb, p, q int, seed uint64, mode LookaheadMode) (DistResult, error) {
	return SolveDistributed2DHybridModeCtx(context.Background(), n, nb, p, q, seed, mode, nil)
}

// SolveDistributed2DHybridCtx is SolveDistributed2DHybrid under a context:
// cancellation is observed both at every rank's stage boundary and inside
// the offload engine itself, so a rank parked in a long trailing update
// unwinds without waiting for the stage to finish.
func SolveDistributed2DHybridCtx(ctx context.Context, n, nb, p, q int, seed uint64) (DistResult, error) {
	return solve2D(ctx, n, nb, p, q, seed, true, LookaheadPipelined, lu.PrecisionFP64, nil)
}

// SolveDistributed2DHybridModeCtx is SolveDistributed2DHybridMode under a
// context, optionally recording protocol spans into rec.
func SolveDistributed2DHybridModeCtx(ctx context.Context, n, nb, p, q int, seed uint64, mode LookaheadMode, rec *trace.Recorder) (DistResult, error) {
	return solve2D(ctx, n, nb, p, q, seed, true, mode, lu.PrecisionFP64, rec)
}

// SolveDistributed2DHybridPrecision is SolveDistributed2DHybridMode with
// an explicit precision. The offload engine computes in FP64 only, so a
// mixed hybrid solve routes its trailing updates through the FP32 packed
// host path instead — bitwise identical to the plain mixed 2D driver —
// and keeps the offload engine for the FP64 fallback re-run.
func SolveDistributed2DHybridPrecision(n, nb, p, q int, seed uint64, mode LookaheadMode, prec lu.PrecisionMode) (DistResult, error) {
	return SolveDistributed2DHybridPrecisionCtx(context.Background(), n, nb, p, q, seed, mode, prec, nil)
}

// SolveDistributed2DHybridPrecisionCtx is SolveDistributed2DHybridPrecision
// under a context, optionally recording protocol spans into rec.
func SolveDistributed2DHybridPrecisionCtx(ctx context.Context, n, nb, p, q int, seed uint64, mode LookaheadMode, prec lu.PrecisionMode, rec *trace.Recorder) (DistResult, error) {
	return solve2D(ctx, n, nb, p, q, seed, true, mode, prec, rec)
}

// offloadUpdate computes c += negL·u — one block column's whole trailing
// update, negL being the stage's −L21, negated once per stage — in one
// call of the work-stealing engine, propagating ctx into it (nil ctx
// means run to completion). Tiles are sized for a card+host split of one
// nb×nb block — negL's width is the panel's nb — so a column splits into
// the tiles its blocks did. The engine computes in FP64 only: an FP32
// grid never routes an update here (solve2DOnce), and As64 refuses one
// that would.
func offloadUpdate[T matrix.Float](ctx context.Context, negL, u, c *matrix.Of[T]) error {
	if ctx == nil {
		ctx = context.Background()
	}
	_, err := offload.ComputeCtx(ctx, negL.As64(), u.As64(), c.As64(), offload.RealConfig{
		Mt: negL.Cols/2 + 1, Nt: c.Cols/2 + 1, CardWorkers: 1, HostWorkers: 1,
	})
	return err
}
