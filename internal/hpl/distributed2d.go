// Package hpl implements the hybrid High-Performance-Linpack layer of
// Section V: a functional distributed LU solver running on the in-process
// cluster fabric (2D block-cyclic blocks on a P×Q process grid, each
// rank's share generated in place and held as one local matrix of
// contiguous block-column panels; per-stage panel factorization, row
// swapping, L and U broadcasts, and a trailing update of one packed GEMM
// per owned block column against the stage's once-packed L21, under three
// look-ahead schedules, in FP64 or mixed precision; the root solves from
// the gathered local matrices and checks the residual against the system
// regenerated from the seed — one grid driver, grid2d[T]), a
// fault-tolerant variant whose ABFT checksums are two more block-column
// panels of one process column's local matrix, kept by the same stage,
// with super-step checkpoint/rollback (ft.go), and a virtual-time
// simulation of the hybrid host+coprocessor implementation with the
// paper's three look-ahead schemes, which regenerates Figure 9 and
// Table III.
package hpl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/trace"
)

// DistResult is the outcome of a distributed solve.
type DistResult struct {
	X        []float64
	Residual float64
	Ranks    int
	Panels   int
	// Seconds is the wall-clock of the timed phase — factorization
	// through back-substitution, entered through a barrier — excluding
	// matrix generation and residual verification, which is the figure
	// HPL itself reports. Set by the grid driver on rank 0; a mixed solve
	// that fell back reports the failed FP32 attempt plus the FP64 re-run.
	// A fault-tolerant solve reports its successful attempt only: restarts
	// show in FT.Restarts, not in Seconds.
	Seconds float64
	// FT carries the fault-tolerance counters of a Grid with FT set
	// (nil for the plain drivers).
	FT *FTStats
	// Refine describes the FP64 iterative-refinement phase of a
	// mixed-precision 2D solve: step count, final scaled residual, and —
	// when the FP32 route could not reach the bar — the typed reason the
	// driver re-ran the FP64 path. Nil for pure-FP64 solves.
	Refine *lu.MixedReport
}

// Comm aliases the cluster endpoint for readability.
type Comm = cluster.Comm

func clampNB(n int) int {
	nb := 64
	if nb > n {
		nb = n
	}
	return nb
}

// Grid is one grid solve: the seeded system of order N, the block size NB
// (out of [1, N] it takes min(64, N)), the P×Q process grid, the stage
// schedule and the precision. Offload runs every trailing update on the
// offload work-stealing engine, one engine run per K-block of the
// stage's packed L, in either precision. A
// non-nil FT runs the fault-tolerant restart loop, an FP64 grid without
// offload; the facade's Spec.Validate refuses the combinations it cannot
// honour.
type Grid struct {
	N, NB, P, Q int
	Seed        uint64
	Lookahead   LookaheadMode
	Precision   lu.PrecisionMode
	Offload     bool
	FT          *FTConfig
}

// Solve factors and solves the seeded random system on a P×Q process grid
// with 2D block-cyclic distribution — the full HPL structure. Per stage it
// performs:
//
//   - panel factorization of the current block column (gathered to the
//     diagonal owner, factored, scattered back — a functional
//     simplification of HPL's in-place distributed panel, preserving
//     pivot choices exactly), the scatter carrying the pivots;
//   - the panel (L) broadcast along process rows, carrying the pivots
//     with L as HPL's panel buffer does;
//   - *distributed row swapping*: pivot rows living on different process
//     rows exchange row segments per process column, one packed message
//     per peer per stage;
//   - the U block-row solve on the pivot process row, then the U
//     broadcast along process columns;
//   - the local trailing update, per owned block column J one GEMM over
//     every owned row below the panel: A(·,J) -= L21·U12(J).
//
// Every schedule produces factors and pivots bitwise identical to the
// sequential blocked algorithm; a 1×R grid is HPL's 1D column
// distribution. With Offload each packed update is one offload-engine
// call, whose "card" worker multiplies the stage's packed L and the
// column's packed U from one end of the tile grid while a host worker
// steals from the other — the functional composition of Sections III and
// V. Both lanes make the prepacked GEMM's micro-kernel calls, so the
// hybrid solve too is bitwise the sequential one. PrecisionMixed
// factors in FP32 (panel, swaps, broadcasts and packed trailing updates,
// halving the wire and GEMM bytes) and refines in FP64 at the root; when
// the FP32 route cannot reach the HPL bar the FP64 path re-runs and
// DistResult.Refine carries the typed reason. FT adds Huang–Abraham
// checksum block columns, which the stage maintains like data, super-step
// checkpoints and world respawn (ft.go).
//
// Every rank observes ctx at its stage boundary; the first rank to return
// ctx.Err() aborts the world, which unblocks any peers parked
// mid-protocol, and once ctx is done the caller sees the plain ctx.Err().
// rec, when non-nil, receives per-phase protocol spans (worker = rank,
// plus an async-GEMM lane at P·Q + rank) — the real-execution counterpart
// of the paper's Figure 8/9 pipeline Gantt charts.
func Solve(ctx context.Context, g Grid, rec *trace.Recorder) (DistResult, error) {
	if g.N < 1 || g.P < 1 || g.Q < 1 {
		return DistResult{}, errors.New("hpl: n, P and Q must be positive")
	}
	if g.NB < 1 || g.NB > g.N {
		g.NB = clampNB(g.N)
	}
	if g.FT != nil {
		return solveFT(ctx, g, rec)
	}
	return solve2D(ctx, g, rec)
}

// SolveDistributed2DMode is Solve on an FP64 grid with the given schedule.
// It remains because the repository benchmark calls it.
func SolveDistributed2DMode(n, nb, p, q int, seed uint64, mode LookaheadMode) (DistResult, error) {
	return Solve(context.Background(), Grid{N: n, NB: nb, P: p, Q: q, Seed: seed, Lookahead: mode}, nil)
}

// solve2D runs a grid solve without the FT loop. When the mixed route
// cannot reach the HPL bar it re-runs the FP64 path in a fresh world,
// keeping the typed fallback reason — a precision decision, not a fault,
// so no FT restart budget is involved — and charges the failed attempt's
// timed phase to the result, so a rate derived from Seconds prices the
// whole solve.
func solve2D(ctx context.Context, g Grid, rec *trace.Recorder) (DistResult, error) {
	res, err := solve2DOnce(ctx, g, rec)
	if err != nil || g.Precision != lu.PrecisionMixed || res.Refine == nil || !res.Refine.FellBack {
		return res, err
	}
	rep := res.Refine
	g.Precision = lu.PrecisionFP64
	fres, ferr := solve2DOnce(ctx, g, rec)
	rep.Residual = fres.Residual
	fres.Refine = rep
	fres.Seconds += res.Seconds
	return fres, ferr
}

// solve2DOnce runs one grid, one solve, in the element type g.Precision
// names. The mixed-precision pipeline is the FP32 instantiation of the
// grid: every factorization-phase structure — panel gather/factor/scatter,
// the row swaps, the L and U broadcasts, the packed trailing updates — is
// the same code over single precision, so every look-ahead mode and grid
// shape produces bitwise identical FP32 factors by the argument that holds
// for FP64.
func solve2DOnce(ctx context.Context, g Grid, rec *trace.Recorder) (DistResult, error) {
	if g.Precision == lu.PrecisionMixed {
		return solveGrid[float32](ctx, g, rec)
	}
	return solveGrid[float64](ctx, g, rec)
}

// solveGrid is the world-construction core; cfg has passed Solve's checks.
func solveGrid[T matrix.Float](ctx context.Context, cfg Grid, rec *trace.Recorder) (DistResult, error) {
	if err := ctx.Err(); err != nil {
		return DistResult{}, err
	}
	n, nb, p, q := cfg.N, cfg.NB, cfg.P, cfg.Q
	nBlocks := (n + nb - 1) / nb

	// Per-pair channel buffers must absorb a stage's worth of eagerly
	// sent messages (U blocks per link scale with nBlocks; the panel, L
	// and swap exchanges are one message each per stage, the pivots
	// riding the panel scatter and L) with look-ahead keeping at most two
	// stages in flight.
	world := cluster.NewWorld(p*q, 2*nBlocks+64)
	if h := testHookWorld; h != nil {
		h(world)
	}
	results := make([]DistResult, p*q)
	errs := make([]error, p*q)
	if err := world.Run(func(c *Comm) error {
		g := &grid2d[T]{c: c, ctx: ctx, P: p, Q: q, n: n, nb: nb, nBlocks: nBlocks,
			offloadUpdates: cfg.Offload, mode: cfg.Lookahead, rec: rec}
		g.p, g.q = c.Rank()/q, c.Rank()%q
		return g.run(cfg.Seed, results, errs)
	}); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return results[0], cerr
		}
		return results[0], err
	}
	for _, e := range errs {
		if e != nil {
			return results[0], e
		}
	}
	return results[0], nil
}

// testHookWorld, when non-nil, sees the world solveGrid builds before it
// runs. Set only by tests (before a solve starts).
var testHookWorld func(*cluster.World)

// grid2d is one process of the grid solver, factoring in element type T.
// No rank holds more of the matrix than its own blocks: rank 0 checks the
// residual — and, with T = float32 (the mixed-precision pipeline), refines
// — against the FP64 system regenerated from the seed.
type grid2d[T matrix.Float] struct {
	c       *Comm
	ctx     context.Context // cancellation, observed at stage boundaries
	p, q    int             // my grid coordinates
	P, Q    int
	n, nb   int
	nBlocks int
	seed    uint64 // matrix seed, kept for jump-ahead regeneration
	mode    LookaheadMode
	// a is this rank's share of the matrix in one allocation: its owned
	// block columns, each an mloc-row panel of width nb, stacked in column
	// order — global block (i, j) sits at rows panel(j)+lrow(i) of a;
	// block(i, j) is its view.
	a          *matrix.Of[T]
	mloc, nloc int
	globalPiv  []int
	stageL11   *matrix.Of[T]       // factored diagonal block of this stage (pivot process row)
	stageL21   *matrix.Of[T]       // this rank's rows of the stage's L21, one view
	packedL    *blas.PrepackedA[T] // −L21 packed once per stage (nil: reference path)
	firstError error
	// offloadUpdates runs the packed trailing updates on the offload
	// work-stealing engine (Grid.Offload), in either precision.
	offloadUpdates bool

	panelPiv      []int        // pivots of the last panel this rank's process column factored
	factoredAhead bool         // the previous stage factored and posted this stage's panel (look-ahead)
	pipe          *pipeline[T] // trailing-update lane (async or inline, see startPipe)
	scratch       []T          // reusable pack buffer (sends copy payloads)
	t0            time.Time    // start of the timed factor+solve phase

	// checkEvery is the FT solver's checkpoint interval in stages (0: the
	// plain grid). Look-ahead stops at its super-step boundaries, and the
	// checksum process column holds C1 and C2 as two more panels of a
	// (holdsChecksums).
	checkEvery int

	// rec receives per-phase protocol spans (nil records nothing):
	// worker = rank for protocol phases and inline GEMMs, P·Q + rank for
	// the async GEMM lane, so the Gantt shows the overlap.
	rec *trace.Recorder
}

// tag bases; stage-dependent offsets keep each exchange unambiguous.
const (
	tag2dGatherBase = 1 << 20
	tag2dSwapBase   = 3 << 20
	tag2dLBase      = 4 << 20
	tag2dUBase      = 5 << 20
	tag2dFinal      = 6 << 20
)

func (g *grid2d[T]) rank(p, q int) int { return p*g.Q + q }

// owner returns the grid coordinates owning global block (I, J).
func (g *grid2d[T]) owner(i, j int) (int, int) { return i % g.P, j % g.Q }

// blockDims returns the dimensions of global block (I, J). The FT grid's
// checksum block columns (J ≥ nBlocks) are nb wide.
func (g *grid2d[T]) blockDims(i, j int) (rows, cols int) {
	rows, cols = g.nb, g.nb
	if (i+1)*g.nb > g.n {
		rows = g.n - i*g.nb
	}
	if j < g.nBlocks && (j+1)*g.nb > g.n {
		cols = g.n - j*g.nb
	}
	return rows, cols
}

// --- local storage ------------------------------------------------------
//
// Block rows are dealt round-robin over the process rows and block
// columns over the process columns, so every block a process owns before
// its last one is full: the owner's local row of block row i is (i/P)·nb,
// and the owned block rows from any global index on form a suffix of the
// local rows. The local matrix keeps each owned block column as one
// contiguous mloc × nb panel (a ragged last column pads its panel), the
// panels stacked in column order: a column's trailing update, its L21 and
// its swap segments are each one compact run of memory, which is what the
// packed GEMM streams fastest (DESIGN.md §19).

// numroc is ScaLAPACK's NUMROC: how many of the n rows (or columns),
// dealt out in nb-blocks round-robin over nprocs processes, process iproc
// owns.
func numroc(n, nb, iproc, nprocs int) int {
	full := n / nb
	loc := full / nprocs * nb
	switch extra := full % nprocs; {
	case iproc < extra:
		loc += nb
	case iproc == extra:
		loc += n % nb
	}
	return loc
}

// localFrom is the local offset at which process iproc's blocks from
// global block index i on begin (loc, its local length, when it owns
// none): the count of its blocks before i, all full, times nb.
func localFrom(i, nb, iproc, nprocs, loc int) int {
	return min((i+nprocs-1-iproc)/nprocs*nb, loc)
}

// layout sizes this rank's local matrix.
func (g *grid2d[T]) layout() {
	g.mloc = numroc(g.n, g.nb, g.p, g.P)
	g.nloc = numroc(g.n, g.nb, g.q, g.Q)
}

// holdsChecksums reports whether this rank keeps the FT grid's checksum
// panels: process column nBlocks mod Q, where global block columns
// nBlocks and nBlocks+Q fall, right after its data panels.
func (g *grid2d[T]) holdsChecksums() bool { return g.checkEvery > 0 && g.q == g.nBlocks%g.Q }

// localRows is the row count of the nb-wide local matrix of a rank that
// holds mloc rows of nloc columns: one mloc-row panel per owned block
// column.
func localRows(mloc, nloc, nb int) int { return (nloc + nb - 1) / nb * mloc }

// lrow is the local row of global block row i on its owner; panel is the
// first row of a of owned block column j's panel.
func (g *grid2d[T]) lrow(i int) int  { return i / g.P * g.nb }
func (g *grid2d[T]) panel(j int) int { return j / g.Q * g.mloc }

// localRow is the local row of global matrix row r on its owner.
func (g *grid2d[T]) localRow(r int) int { return g.lrow(r/g.nb) + r%g.nb }

// block returns owned global block (i, j) as a view of the local matrix.
func (g *grid2d[T]) block(i, j int) *matrix.Of[T] {
	r, c := g.blockDims(i, j)
	return g.a.View(g.panel(j)+g.lrow(i), 0, r, c)
}

// colView is owned block column j's local rows from lr on, one view.
func (g *grid2d[T]) colView(j, lr int) *matrix.Of[T] {
	_, w := g.blockDims(0, j)
	return g.a.View(g.panel(j)+lr, 0, g.mloc-lr, w)
}

// seg is local row lr of owned block column jb, w wide.
func (g *grid2d[T]) seg(lr, jb, w int) []T { return g.a.Row(g.panel(jb) + lr)[:w] }

// rowsFrom is the local row at which this rank's block rows from global
// block row i on begin.
func (g *grid2d[T]) rowsFrom(i int) int { return localFrom(i, g.nb, g.p, g.P, g.mloc) }

// factorRun reads the n×n factors out of the local matrices gathered on
// rank 0 (locals[rank]) without assembling them: run(i, j) is matrix row i
// from column j to the end of j's block, one slice of the owning rank's
// panel — blas.LUSolveRuns's view of the block-cyclic layout.
//
// The solve asks for every run of every row twice, so the index maps are
// tabulated once per matrix row and column rather than divided out per run.
func (g *grid2d[T]) factorRun(locals []*matrix.Of[T]) func(i, j int) []T {
	type rowAt struct{ rank, mloc, lr int }   // owner's rank of column 0, its mloc, local row within a panel
	type colAt struct{ q, panel, lo, hi int } // owner's process column, its panel index, the run's bounds in the panel
	rows, cols := make([]rowAt, g.n), make([]colAt, g.n)
	for r := range rows {
		pp := r / g.nb % g.P
		rows[r] = rowAt{g.rank(pp, 0), numroc(g.n, g.nb, pp, g.P), g.localRow(r)}
	}
	for c := range cols {
		jb := c / g.nb
		_, w := g.blockDims(0, jb)
		cols[c] = colAt{jb % g.Q, jb / g.Q, c - jb*g.nb, w}
	}
	return func(i, j int) []T {
		r, c := rows[i], cols[j]
		return locals[r.rank+c.q].Row(c.panel*r.mloc + r.lr)[c.lo:c.hi]
	}
}

// mixedTestSystem, when non-nil, replaces the seeded random system in the
// scatter — a test hook for must-fall-back goldens (ill-conditioned
// systems the FP32 route cannot solve). The hook must be deterministic:
// every rank calls it independently and materializes the full system
// (test-scale only).
var mixedTestSystem func(n int, seed uint64) (*matrix.Dense, []float64)

// demote copies src, a block of the FP64 system, into dst, a block of the
// grid. An FP32 grid rounds each value with the T(v) conversion ToDense32
// applies (round-to-nearest — the demotion that starts HPL-MxP); on an
// FP64 grid the conversion is the identity.
func demote[T matrix.Float](dst *matrix.Of[T], src *matrix.Dense) {
	for r := 0; r < dst.Rows; r++ {
		d := dst.Row(r)
		for c, v := range src.Row(r) {
			d[c] = T(v)
		}
	}
}

// scatter generates the seeded system straight into the local matrix, in
// the grid's element type: every rank, the root included, jumps the
// generator to its own blocks (matrix.FillRandomBlockCyclic) and never
// allocates the rest of the matrix. It returns, on rank 0, the FP64
// system the root checks the solution (and, on an FP32 grid, refines)
// against — a SeededSystem, which regenerates A from the seed a row at a
// time on every pass. Under
// mixedTestSystem every rank holds the hook's full matrix instead, and
// scatter returns it as full.
func (g *grid2d[T]) scatter(seed uint64) (sys matrix.System, full *matrix.Dense) {
	g.seed = seed
	var rhs []float64
	if hook := mixedTestSystem; hook != nil {
		// Keep the FP64 fallback re-run on the same (hooked) system the
		// mixed attempt factored; see mixedTestSystem.
		full, rhs = hook(g.n, seed)
	}
	g.layout()
	rows := localRows(g.mloc, g.nloc, g.nb)
	if g.holdsChecksums() {
		rows += 2 * g.mloc
	}
	g.a = matrix.New[T](rows, g.nb)
	if full == nil {
		matrix.FillRandomBlockCyclic(g.n, g.nb, seed, g.p, g.q, g.P, g.Q, g.block)
	} else {
		for i := g.p; i < g.nBlocks; i += g.P {
			for j := g.q; j < g.nBlocks; j += g.Q {
				r, c := g.blockDims(i, j)
				demote(g.block(i, j), full.View(i*g.nb, j*g.nb, r, c))
			}
		}
	}
	g.globalPiv = make([]int, g.n)
	for i := range g.globalPiv {
		g.globalPiv[i] = i
	}
	switch {
	case g.me() != 0:
	case full != nil:
		sys = matrix.DenseSystem(full, rhs)
	default:
		sys = matrix.SeededSystem(g.n, seed)
	}
	return sys, full
}

func (g *grid2d[T]) run(seed uint64, results []DistResult, errs []error) error {
	sys, _ := g.scatter(seed)
	// HPL times the solve proper: all ranks sync here so generation cost
	// can't leak into any rank's factorization phase.
	if err := g.c.Barrier(); err != nil {
		return err
	}
	g.t0 = time.Now()
	g.startPipe()
	defer g.stopPipe()
	for k := 0; k < g.nBlocks; k++ {
		// Stage boundary: every rank observes cancellation here, before
		// issuing any of the stage's sends, so the fabric is quiescent
		// between ranks when the world unwinds.
		if err := g.ctxErr(); err != nil {
			return err
		}
		if err := g.c.Progress(k); err != nil {
			return err
		}
		if err := g.stage(k); err != nil {
			return err
		}
	}
	return g.gatherAndSolve(sys, results, errs)
}

// ctxErr reports the grid's cancellation state (nil ctx: never cancelled).
func (g *grid2d[T]) ctxErr() error {
	if g.ctx == nil {
		return nil
	}
	return g.ctx.Err()
}

// ctxOrBG returns the grid's context, never nil.
func (g *grid2d[T]) ctxOrBG() context.Context {
	if g.ctx == nil {
		return context.Background()
	}
	return g.ctx
}

// elapsed is the timed phase so far (zero when the driver opened none).
func (g *grid2d[T]) elapsed() float64 {
	if g.t0.IsZero() {
		return 0
	}
	return time.Since(g.t0).Seconds()
}

// gatherAndSolve collects every rank's local matrix on rank 0 and hands
// the factors, read in place through factorRun, to the precision's root
// tail: an FP64 grid solves and checks the residual against sys; an FP32
// grid refines against it.
func (g *grid2d[T]) gatherAndSolve(sys matrix.System, results []DistResult, errs []error) error {
	if err := g.drainPipe(); err != nil {
		return err
	}
	if g.me() != 0 {
		// One message per rank: the data panels of the local matrix as
		// they stand, plus the singularity flag. The local matrix is done
		// with, so the root takes it over instead of a copy.
		data := localRows(g.mloc, g.nloc, g.nb) * g.nb
		return g.handOver(0, tag2dFinal, g.a.Data[:data], singularFlag(g.firstError))
	}

	locals := make([]*matrix.Of[T], g.P*g.Q)
	locals[0] = g.a
	firstErr := g.firstError
	for rk := 1; rk < g.P*g.Q; rk++ {
		f, flag, err := g.recv(rk, tag2dFinal)
		if err != nil {
			return err
		}
		rows := localRows(numroc(g.n, g.nb, rk/g.Q, g.P), numroc(g.n, g.nb, rk%g.Q, g.Q), g.nb)
		locals[rk], err = unflatten(f, rows, g.nb)
		if err != nil {
			return fmt.Errorf("hpl: rank %d final payload: %w", rk, err)
		}
		if e := singularFromFlag(flag); e != nil && firstErr == nil {
			firstErr = e
		}
	}

	run := g.factorRun(locals)
	res := DistResult{Ranks: g.P * g.Q, Panels: g.nBlocks}
	if !matrix.Is64[T]() {
		var err error
		results[0], err = g.refineRoot(res, run, firstErr, sys)
		return err
	}
	res.X = blas.LUSolveRuns(g.n, run, g.globalPiv, sys.B)
	res.Seconds = g.elapsed()
	res.Residual = sys.Residual(res.X)
	results[0] = res
	errs[0] = firstErr
	return nil
}

// refineRoot is the root tail of an FP32 grid: the FP64 refinement ladder
// against the gathered single-precision factors. A route they cannot
// finish — singular in single precision, stalled refinement, non-finite
// iterate — is reported through DistResult.Refine with the attempt's timed
// phase; the solve2D wrapper then re-runs the FP64 path in a fresh world
// (no FT restart is burned: the fallback is a precision decision, not a
// fault).
func (g *grid2d[T]) refineRoot(res DistResult, run func(i, j int) []T, firstErr error, sys matrix.System) (DistResult, error) {
	// A zero/subnormal pivot in FP32 (firstErr) is a fallback trigger, not
	// a terminal error: the matrix may still factor fine in FP64.
	solve := func(r []float64) []float64 { return blas.LUSolveRuns(g.n, run, g.globalPiv, r) }
	x, rep, err := lu.RefineMixed(g.ctxOrBG(), sys, firstErr, solve, g.rec)
	if err != nil {
		return DistResult{}, err
	}
	res.X, res.Residual, res.Refine, res.Seconds = x, rep.Residual, &rep, g.elapsed()
	return res, nil
}
