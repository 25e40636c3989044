// Package phihpl is a Go reproduction of "Design and Implementation of the
// Linpack Benchmark for Single and Multi-Node Systems Based on Intel Xeon
// Phi Coprocessor" (Heinecke et al., IPDPS 2013).
//
// The package exposes three layers:
//
//   - Real numerics: pure-Go BLAS, LU factorization with the paper's DAG
//     dynamic scheduler, offload DGEMM with work stealing, and a
//     distributed block-cyclic Linpack on an in-process cluster fabric —
//     all residual-checked against the HPL acceptance test.
//   - A simulated Knights Corner machine: a cycle-level model of the
//     paper's DGEMM micro-kernels and calibrated cost models, on which
//     the same schedulers are replayed in virtual time.
//   - Experiment runners that regenerate every table and figure of the
//     paper's evaluation (Table I–III, Figures 4, 6, 7, 9, 11).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package phihpl

import (
	"context"
	"math"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/fault"
	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/offload"
	"phihpl/internal/simlu"
	"phihpl/internal/trace"
)

// ResidualThreshold is the HPL pass/fail bound on the scaled residual.
const ResidualThreshold = matrix.ResidualThreshold

// Typed failure modes, re-exported so callers can errors.Is/As against
// them without importing the internal layers.
var (
	// ErrSingular: factorization hit an exactly zero or subnormal pivot.
	// errors.As against *SingularError yields the offending global column.
	ErrSingular = blas.ErrSingular
	// ErrTimeout: a collective or point-to-point op exceeded the deadline.
	ErrTimeout = cluster.ErrTimeout
	// ErrRankFailed: a peer rank crashed or was declared dead.
	ErrRankFailed = cluster.ErrRankFailed
	// ErrChecksum: an ABFT super-step found corruption it could not repair.
	ErrChecksum = hpl.ErrChecksum
)

// SingularError reports the first column whose pivot was zero/subnormal.
type SingularError = blas.SingularError

// FaultError is the structured report of an unrecoverable fault-tolerant
// run: the iteration reached, restarts consumed, per-stage profile, and
// the underlying cause.
type FaultError = hpl.FaultError

// FaultPlan is a deterministic fault-injection schedule (see ParseFaultPlan).
type FaultPlan = fault.Plan

// FTConfig configures the fault-tolerant solver.
type FTConfig = hpl.FTConfig

// FTStats reports recovery activity of a fault-tolerant run.
type FTStats = hpl.FTStats

// SolveResult reports a real (bit-exact) Linpack solve.
type SolveResult struct {
	X        []float64
	Residual float64
	Passed   bool
	N        int
	// Seconds is the wall-clock of the timed phase, the figure HPL itself
	// reports, set by every mode: factorization through back-substitution
	// (on a grid, entered through a barrier). A native mixed solve times
	// the FP32 demotion through the last refinement step, plus any FP64
	// fallback; a grid's mixed solve that fell back charges the failed
	// FP32 attempt too.
	Seconds float64
	// FT carries recovery statistics when the fault-tolerant driver ran.
	FT *FTStats
	// Refine reports the mixed-precision path (iteration count, typed
	// fallback) of a PrecisionMixed solve; nil for pure-FP64 solves.
	Refine *RefineReport
}

// fromDist is the facade's view of a grid solve: the solution, the HPL
// verdict, the timed phase and the FT/refinement reports, or the error
// alone. A completed solve's X spans the system, so it also gives N.
func fromDist(r hpl.DistResult, err error) (SolveResult, error) {
	if err != nil {
		return SolveResult{}, err
	}
	return SolveResult{X: r.X, Residual: r.Residual, Passed: passed(r.Residual), N: len(r.X),
		Seconds: r.Seconds, FT: r.FT, Refine: r.Refine}, nil
}

// passed applies the HPL verdict: a non-finite residual (NaN from a
// poisoned solve, Inf from overflow) is always FAILED, never a silent
// false comparison.
func passed(res float64) bool {
	return !math.IsNaN(res) && !math.IsInf(res, 0) && res < ResidualThreshold
}

// Scheduler selects the native LU driver.
type Scheduler int

const (
	// DynamicDAG is the paper's dynamic DAG scheduler (the zero value).
	DynamicDAG Scheduler = iota
	// Sequential is the blocked reference algorithm.
	Sequential
	// StaticLookahead is the barrier-per-stage baseline of Section IV-B.
	StaticLookahead
)

// Solve is Run of a native FP64 Spec. It remains because the repository
// benchmark calls it.
func Solve(n int, sched Scheduler, nb, workers int, seed uint64) (SolveResult, error) {
	return Run(context.Background(), Spec{N: n, Scheduler: sched, NB: nb, Workers: workers, Seed: seed}, nil)
}

// SolveTraced is Solve with a span recorder. It remains because the
// repository benchmark calls it.
func SolveTraced(n int, sched Scheduler, nb, workers int, seed uint64, rec *trace.Recorder) (SolveResult, error) {
	return Run(context.Background(), Spec{N: n, Scheduler: sched, NB: nb, Workers: workers, Seed: seed}, rec)
}

// SolveDistributed2DPrecisionCtx is Run of a ModeDist2D Spec. It remains
// because the repository benchmark calls it.
func SolveDistributed2DPrecisionCtx(ctx context.Context, n, nb, p, q int, seed uint64, mode LookaheadMode, prec PrecisionMode, rec *trace.Recorder) (SolveResult, error) {
	return Run(ctx, Spec{Mode: ModeDist2D, N: n, NB: nb, P: p, Q: q, Seed: seed, Lookahead: mode, Precision: prec}, rec)
}

// PrecisionMode selects the arithmetic of the shared-memory solve:
// PrecisionFP64 is the classical all-double path, PrecisionMixed is the
// HPL-MxP scheme — FP32 factorization through the packed SGEMM fast path,
// then FP64 iterative refinement, with automatic fallback to FP64 when
// the matrix is beyond single precision's reach.
type PrecisionMode = lu.PrecisionMode

// Precision modes of a Spec.
const (
	PrecisionFP64  = lu.PrecisionFP64
	PrecisionMixed = lu.PrecisionMixed
)

// ParsePrecisionMode parses "fp64" or "mixed".
func ParsePrecisionMode(s string) (PrecisionMode, error) { return lu.ParsePrecisionMode(s) }

// RefineReport describes a mixed-precision solve: refinement iterations,
// final scaled residual, and the typed reason when the solver abandoned
// the FP32 factors for the FP64 path.
type RefineReport = lu.MixedReport

// FallbackReason says why a mixed solve fell back to FP64.
type FallbackReason = lu.FallbackReason

// Fallback reasons carried in RefineReport.Reason.
const (
	FallbackNone      = lu.FallbackNone
	FallbackSingular  = lu.FallbackSingular
	FallbackStalled   = lu.FallbackStalled
	FallbackNonFinite = lu.FallbackNonFinite
)

// LookaheadMode selects the stage schedule of the real 2D distributed
// driver. All three run one protocol and differ only in overlap:
// LookaheadNone overlaps nothing with the trailing update, LookaheadBasic
// factors panel k+1 as soon as its block column is updated, and
// LookaheadPipelined (the default) additionally runs each block column's
// GEMM on an asynchronous lane under the next column's swaps and
// broadcasts. All three produce bitwise-identical factorizations.
// HybridConfig.Lookahead prices the same three schedules (Figure 8).
type LookaheadMode = hpl.LookaheadMode

// Look-ahead schedules.
const (
	LookaheadNone      = hpl.LookaheadNone
	LookaheadBasic     = hpl.LookaheadBasic
	LookaheadPipelined = hpl.LookaheadPipelined
)

// ParseLookaheadMode parses "none", "basic" or "pipelined".
func ParseLookaheadMode(s string) (LookaheadMode, error) { return hpl.ParseLookaheadMode(s) }

// ParseFaultPlan parses a fault-injection spec like
//
//	"seed=7;drop=0.02;delay=0.01:2ms;corrupt=0.01;crash=3@2;stall=1@4:300ms;scrub=2@3"
//
// into a deterministic plan: the same spec always injects the same faults.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// NativeLinpackSim prices a native Linpack run of order n on the simulated
// Knights Corner with the dynamic DAG scheduler and returns (GFLOPS,
// efficiency vs. 60-core peak).
func NativeLinpackSim(n int) (gflops, eff float64) {
	r := simlu.Dynamic(simlu.Config{N: n})
	return r.GFLOPS, r.Eff
}

// NativeLinpackStaticSim prices the static look-ahead baseline.
func NativeLinpackStaticSim(n int) (gflops, eff float64) {
	r := simlu.Static(simlu.Config{N: n})
	return r.GFLOPS, r.Eff
}

// OffloadDGEMMSim prices an offload DGEMM of an m×n trailing update
// (depth 1200) on the given number of cards and returns (GFLOPS,
// efficiency vs. the cards' full peak).
func OffloadDGEMMSim(m, n, cards int) (gflops, eff float64) {
	r := offload.Simulate(m, n, offload.SimConfig{Cards: cards})
	return r.GFLOPS, r.Eff
}

// HybridConfig configures a hybrid HPL simulation (a Table III row).
type HybridConfig = hpl.SimConfig

// HybridResult is the outcome of a hybrid HPL simulation.
type HybridResult = hpl.SimResult

// HybridHPLSim prices a hybrid (host + coprocessor) HPL run.
func HybridHPLSim(cfg HybridConfig) HybridResult { return hpl.Simulate(cfg) }

// MaxProblemSize returns the largest NB-multiple problem size whose matrix
// fits in the cluster's host memory — how Table III's N values follow from
// the 64/128 GB node configurations.
func MaxProblemSize(nodes, memGiB, nb int) int { return hpl.MaxProblemSize(nodes, memGiB, nb) }
