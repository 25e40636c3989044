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
	// Seconds is the wall-clock of the timed phase (factorization through
	// back-substitution; on a grid, entered through a barrier), the figure
	// HPL itself reports. Set by the native FP64 solves and the 2D
	// distributed drivers; zero for a native mixed-precision solve.
	Seconds float64
	// FT carries recovery statistics when the fault-tolerant driver ran.
	FT *FTStats
	// Refine reports the mixed-precision path (iteration count, typed
	// fallback) when SolveMixedPrecision ran; nil for pure-FP64 solves.
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
	// Sequential is the blocked reference algorithm.
	Sequential Scheduler = iota
	// StaticLookahead is the barrier-per-stage baseline of Section IV-B.
	StaticLookahead
	// DynamicDAG is the paper's dynamic DAG scheduler.
	DynamicDAG
)

// Solve generates the seeded random system A·x = b of order n, factors A
// in place with the selected scheduler (NB block size, `workers` goroutine
// thread groups) and returns the solution with its HPL residual, checked
// against A regenerated from the seed row by row.
func Solve(n int, sched Scheduler, nb, workers int, seed uint64) (SolveResult, error) {
	return SolveTraced(n, sched, nb, workers, seed, nil)
}

// SolveTraced is Solve with a span recorder attached to the native LU
// driver: the dynamic DAG scheduler emits one wall-clock span per
// executed task (worker = thread group, name = PanelFact/Update), the
// real-execution counterpart of the paper's Figure 7 Gantt chart. Export
// the recorder with trace.Recorder.Gantt or WriteChromeTrace. A nil
// recorder makes this identical to Solve.
func SolveTraced(n int, sched Scheduler, nb, workers int, seed uint64, rec *trace.Recorder) (SolveResult, error) {
	return SolveTracedContext(context.Background(), n, sched, nb, workers, seed, rec)
}

// PrecisionMode selects the arithmetic of the shared-memory solve:
// PrecisionFP64 is the classical all-double path, PrecisionMixed is the
// HPL-MxP scheme — FP32 factorization through the packed SGEMM fast path,
// then FP64 iterative refinement, with automatic fallback to FP64 when
// the matrix is beyond single precision's reach.
type PrecisionMode = lu.PrecisionMode

// Precision modes for SolveMixedPrecision.
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

// SolveMixedPrecision generates the seeded random system of order n and
// solves it in the selected precision: PrecisionFP64 routes to the
// dynamic DAG driver with the given workers (SolveTraced's path),
// PrecisionMixed factors in FP32 and refines in FP64 (Result.Refine
// carries the iteration count and any fallback). Either way the result is
// held to the same HPL residual verdict — a mixed solve never trades
// accuracy for its speed.
func SolveMixedPrecision(n int, mode PrecisionMode, nb, workers int, seed uint64) (SolveResult, error) {
	return SolveMixedPrecisionTraced(n, mode, nb, workers, seed, nil)
}

// SolveMixedPrecisionTraced is SolveMixedPrecision with a span recorder:
// the mixed path emits "SFactor" for the FP32 factorization, one "Refine"
// span per correction solve, and "FP64Fallback" when it re-solves in
// double precision.
func SolveMixedPrecisionTraced(n int, mode PrecisionMode, nb, workers int, seed uint64, rec *trace.Recorder) (SolveResult, error) {
	return SolveMixedPrecisionCtx(context.Background(), n, mode, nb, workers, seed, rec)
}

// SolveDistributed runs the functional distributed Linpack on `ranks`
// in-process nodes (1D block-cyclic columns, per-stage panel broadcasts
// over a real message fabric — the 1×ranks grid of SolveDistributed2D)
// and returns the solution, the residual and the timed phase.
func SolveDistributed(n, nb, ranks int, seed uint64) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed(n, nb, ranks, seed))
}

// SolveDistributed2D runs the full HPL structure — a P×Q process grid
// with 2D block-cyclic blocks, distributed pivot swaps, and row/column
// broadcasts — on in-process nodes, bitwise identical to the sequential
// algorithm. It uses the pipelined look-ahead schedule; see
// SolveDistributed2DMode to pick another.
func SolveDistributed2D(n, nb, p, q int, seed uint64) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2D(n, nb, p, q, seed))
}

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

// SolveDistributed2DMode is SolveDistributed2D with an explicit
// look-ahead schedule.
func SolveDistributed2DMode(n, nb, p, q int, seed uint64, mode LookaheadMode) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DMode(n, nb, p, q, seed, mode))
}

// SolveHybrid2D is SolveDistributed2D with every trailing update executed
// by the real offload engine (host/card work stealing over packed tiles) —
// the functional composition of the paper's Sections III and V.
func SolveHybrid2D(n, nb, p, q int, seed uint64) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DHybrid(n, nb, p, q, seed))
}

// SolveHybrid2DMode is SolveHybrid2D with an explicit look-ahead
// schedule.
func SolveHybrid2DMode(n, nb, p, q int, seed uint64, mode LookaheadMode) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DHybridMode(n, nb, p, q, seed, mode))
}

// SolveDistributed2DPrecision is SolveDistributed2DMode with an explicit
// precision: PrecisionFP64 is the plain driver, PrecisionMixed runs the
// distributed HPL-MxP scheme — FP32 panel factorization, broadcasts,
// swaps and packed trailing updates across the grid, then FP64 iterative
// refinement on the root (Result.Refine carries the iteration count).
// When the matrix is beyond single precision's reach the driver re-runs
// the FP64 path automatically and Refine records the typed reason; the
// verdict is the same HPL residual bar either way.
func SolveDistributed2DPrecision(n, nb, p, q int, seed uint64, mode LookaheadMode, prec PrecisionMode) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DPrecision(n, nb, p, q, seed, mode, prec))
}

// SolveHybrid2DPrecision is SolveHybrid2DMode with an explicit precision.
// The offload engine computes in FP64 only, so a mixed hybrid solve
// routes its trailing updates through the FP32 packed host path — bitwise
// identical to the plain mixed driver — and keeps the offload engine for
// the FP64 fallback re-run.
func SolveHybrid2DPrecision(n, nb, p, q int, seed uint64, mode LookaheadMode, prec PrecisionMode) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DHybridPrecision(n, nb, p, q, seed, mode, prec))
}

// ParseFaultPlan parses a fault-injection spec like
//
//	"seed=7;drop=0.02;delay=0.01:2ms;corrupt=0.01;crash=3@2;stall=1@4:300ms;scrub=2@3"
//
// into a deterministic plan: the same spec always injects the same faults.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// SolveFaultTolerant2D is SolveDistributed2D hardened against the faults
// scheduled in cfg.Plan: messages are retried over a lossy fabric, silent
// data corruption is repaired from ABFT checksum columns carried through
// the factorization, and rank crashes roll back to the last super-step
// checkpoint. With an empty plan the result is bitwise identical to
// SolveDistributed2D. On unrecoverable faults the error is a *FaultError
// carrying the iteration reached and the per-stage profile.
func SolveFaultTolerant2D(n, nb, p, q int, seed uint64, cfg FTConfig) (SolveResult, error) {
	return fromDist(hpl.SolveDistributed2DFT(n, nb, p, q, seed, cfg))
}

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
