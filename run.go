package phihpl

import (
	"context"
	"errors"
	"fmt"

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

// ErrUnsupported: the Spec names a combination no solver implements (see
// Spec.Validate). errors.Is matches every such rejection.
var ErrUnsupported = errors.New("phihpl: unsupported combination")

// Mode selects the solver a Spec runs.
type Mode string

// Solver modes. The empty Mode is ModeNative.
const (
	ModeNative   Mode = "native"   // shared-memory LU with the Spec's Scheduler (supports PrecisionMixed)
	ModeDist2D   Mode = "dist2d"   // P×Q block-cyclic distributed solve (supports PrecisionMixed)
	ModeHybrid2D Mode = "hybrid2d" // dist2d with its packed trailing updates on the offload engine, bitwise dist2d's (supports PrecisionMixed)
	ModeFT       Mode = "ft"       // fault-tolerant dist2d (supports a fault plan; FP64 only)
)

// Spec is one real, residual-checked Linpack solve: the seeded random
// system of order N, solved in Mode with block size NB (64 when unset;
// each driver clamps it into [1, N]). Workers and Scheduler drive the
// native LU; P, Q and Lookahead the grid modes; Precision every mode but
// ModeFT; FT the fault-tolerant mode. The zero value of every field but N
// and NB is the common case: a native, dynamic-DAG, FP64 solve, pipelined
// on a grid.
type Spec struct {
	Mode      Mode
	N, NB     int
	Workers   int
	Scheduler Scheduler
	P, Q      int
	Seed      uint64
	Precision PrecisionMode
	Lookahead LookaheadMode
	FT        FTConfig
}

// Validate is the one combination rule: it refuses n < 1, a grid mode
// with P or Q < 1, an unknown mode, mixed precision with the
// fault-tolerant mode (its ABFT checksums and checkpoints protect FP64
// state only, and a mixed FP64 fallback re-run would be indistinguishable
// from a rollback), and a fault plan outside ModeFT (whose driver has no
// offload lane, so ft + offload is refused too). Every refused combination
// wraps ErrUnsupported.
func (sp Spec) Validate() error {
	grid := sp.Mode != "" && sp.Mode != ModeNative
	switch {
	case grid && sp.Mode != ModeDist2D && sp.Mode != ModeHybrid2D && sp.Mode != ModeFT:
		return fmt.Errorf("%w: unknown mode %q", ErrUnsupported, sp.Mode)
	case sp.N < 1 || grid && (sp.P < 1 || sp.Q < 1):
		return errors.New("phihpl: n, P and Q must be positive")
	case sp.Mode == ModeFT && sp.Precision == PrecisionMixed:
		return fmt.Errorf("%w: precision %q with mode %q: the fault-tolerant solver's ABFT checksum "+
			"columns and checkpoints protect FP64 state only, and a mixed FP64 fallback re-run would be "+
			"indistinguishable from a rollback — use mode %q, %q or %q for mixed, or precision %q with %q",
			ErrUnsupported, sp.Precision, sp.Mode, ModeDist2D, ModeHybrid2D, ModeNative, PrecisionFP64, ModeFT)
	case sp.Mode != ModeFT && sp.FT.Plan != nil:
		return fmt.Errorf("%w: a fault plan with mode %q: only mode %q injects faults, and its solver "+
			"has no offload lane", ErrUnsupported, sp.Mode, ModeFT)
	}
	return nil
}

// Run validates sp and solves it: the native LU with the selected driver
// (in FP64, or for PrecisionMixed its FP32 instantiation refined in FP64)
// or the process grid of hpl.Solve. Every mode observes ctx — at every
// task-issue, refinement-step or stage boundary, so cancelling stops the
// solve promptly, discards partial work and returns the plain ctx.Err(),
// never a *FaultError; all worker goroutines are joined before return.
// rec, when non-nil, receives the solve's spans: one per DAG task
// (PanelFact/Update, the paper's Figure 7) in either precision, Refine per
// correction solve of a mixed solve, the grid's per-phase protocol spans
// (Figures 8 and 9) and the FT super-step spans.
func Run(ctx context.Context, sp Spec, rec *trace.Recorder) (SolveResult, error) {
	if err := sp.Validate(); err != nil {
		return SolveResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return SolveResult{}, err
	}
	if sp.Mode == "" || sp.Mode == ModeNative {
		return runNative(ctx, sp, rec)
	}
	g := hpl.Grid{N: sp.N, NB: sp.NB, P: sp.P, Q: sp.Q, Seed: sp.Seed,
		Lookahead: sp.Lookahead, Precision: sp.Precision, Offload: sp.Mode == ModeHybrid2D}
	if sp.Mode == ModeFT {
		g.FT = &sp.FT
	}
	return fromDist(hpl.Solve(ctx, g, rec))
}

// runNative is the shared-memory solve in the element type sp.Precision
// names: mixed precision is the float32 instantiation of the FP64 solve.
// When the mixed route cannot reach the HPL bar it re-runs the solve in
// FP64, keeping the typed fallback reason and charging the failed
// attempt's timed phase to the result, as the grid's solve2D does.
func runNative(ctx context.Context, sp Spec, rec *trace.Recorder) (SolveResult, error) {
	solve := solveNative[float64]
	if sp.Precision == PrecisionMixed {
		solve = solveNative[float32]
	}
	res, err := solve(ctx, sp, rec)
	if err != nil || res.Refine == nil || !res.Refine.FellBack {
		return res, err
	}
	fres, err := solveNative[float64](ctx, sp, rec)
	if err != nil {
		return SolveResult{}, err
	}
	res.Refine.Residual = fres.Residual
	fres.Refine = res.Refine
	fres.Seconds += res.Seconds
	return fres, nil
}

// solveNative generates A from the seed straight into the one matrix it
// factors in place with the Spec's Scheduler, and checks — at float32,
// refines — x against A regenerated from the seed row by row.
func solveNative[T matrix.Float](ctx context.Context, sp Spec, rec *trace.Recorder) (SolveResult, error) {
	driver := lu.DynamicCtx[T]
	switch sp.Scheduler {
	case Sequential:
		driver = lu.SequentialCtx[T]
	case StaticLookahead:
		driver = lu.StaticLookaheadCtx[T]
	}
	n := sp.N
	a := matrix.New[T](n, n)
	a.FillRandom(matrix.NewPRNG(sp.Seed))
	opts := lu.Options{NB: sp.NB, Workers: sp.Workers, Trace: rec}
	x, res, secs, rep, err := lu.SolveInPlace(ctx, a, matrix.SeededSystem(n, sp.Seed), opts, driver)
	if err != nil {
		return SolveResult{}, err
	}
	return SolveResult{X: x, Residual: res, Passed: passed(res), N: n, Seconds: secs, Refine: rep}, nil
}
