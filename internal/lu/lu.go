// Package lu implements the native Linpack factorization drivers of
// Section IV with real numerics: a sequential blocked reference, the
// static look-ahead scheme (global barrier per stage, the paper's
// baseline), and the DAG-based dynamic scheduler (the paper's
// contribution) running on goroutine thread groups.
//
// All three drivers produce bitwise-identical factors and pivots: they
// reorder only independent work (updates to disjoint column panels), and
// every elementary operation is performed in the same order within each
// panel. The tests assert this, which is the strongest possible statement
// that dynamic scheduling changes the schedule, not the mathematics.
//
// The drivers, their task kernels and SolveInPlace are written once over
// matrix.Float. The float64 instantiation is the Linpack solve; the
// float32 one factors the single-precision matrix of the mixed solve,
// which SolveInPlace then refines in FP64 (mixed.go).
//
// Timing of these schedules on the simulated Knights Corner is the job of
// internal/simlu; this package is about correctness and real concurrency.
package lu

import (
	"context"
	"fmt"
	"sync/atomic"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/trace"
)

// Options configure a factorization driver.
type Options struct {
	// NB is the panel width (block size). Values around 240–360 mirror
	// the paper's Knights Corner blocking; small matrices clamp it.
	NB int
	// Workers is the number of concurrent thread groups (goroutines)
	// executing tasks.
	Workers int
	// Trace, when non-nil, receives one wall-clock span per executed task
	// from the dynamic scheduler — worker = thread-group id, name =
	// "PanelFact" or "Update", iter = the task's stage — producing the
	// real-execution Gantt chart of Figure 7. Nil (the default) records
	// nothing and adds no overhead to the task loop.
	Trace *trace.Recorder
}

// withDefaults fills unset options.
func (o Options) withDefaults(n int) Options {
	if o.NB < 1 {
		o.NB = 64
	}
	if o.NB > n {
		o.NB = n
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// panels returns the number of NB-wide column panels of an n-column matrix.
func panels(n, nb int) int { return (n + nb - 1) / nb }

// panelCols returns the column range [lo, hi) of panel p.
func panelCols(n, nb, p int) (lo, hi int) {
	lo = p * nb
	hi = lo + nb
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Sequential factors a in place with partial pivoting using the blocked
// reference algorithm, blas.Getrf on one worker. piv must have length n.
func Sequential[T matrix.Float](a *matrix.Of[T], piv []int, opts Options) error {
	opts = opts.withDefaults(a.Cols)
	return blas.Getrf(a, piv, opts.NB, 1)
}

// testHookPanelFact, when non-nil, runs at the top of every panel
// factorization. Set only by tests (before a driver starts) to inject
// panics into the task kernels.
var testHookPanelFact func(p int)

// testHookL21, when non-nil, observes the life of every stage's packed
// L21: delta +1 when factorPanel packs it, −1 when it is released. Set
// only by tests (before a driver starts).
var testHookL21 func(stage, delta int)

// state carries the shared factorization context of the concurrent drivers.
type state[T matrix.Float] struct {
	a   *matrix.Of[T]
	n   int
	nb  int
	np  int
	piv [][]int // per-stage local pivots (panel-relative)

	// l21[s] is −L21 of stage s in packed-tile form: packed once, by
	// factorPanel(s), and read by every updatePanel(s, ·), instead of
	// each of those np−1−s updates re-packing the same block. It is nil
	// when there is nothing below the panel. left[s] counts the stage's
	// updates still to run; the one that brings it to zero releases the
	// slab, so a solve holds one slab per stage in flight, not one per
	// stage.
	l21  []*blas.PrepackedA[T]
	left []atomic.Int32
}

func newState[T matrix.Float](a *matrix.Of[T], opts Options) *state[T] {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("lu: matrix must be square, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Cols
	st := &state[T]{a: a, n: n, nb: opts.NB, np: panels(n, opts.NB)}
	st.piv = make([][]int, st.np)
	st.l21 = make([]*blas.PrepackedA[T], st.np)
	st.left = make([]atomic.Int32, st.np)
	pivots := make([]int, n)
	for p := range st.piv {
		lo, hi := panelCols(n, st.nb, p)
		st.piv[p] = pivots[lo:hi:hi]
		st.left[p].Store(int32(st.np - 1 - p))
	}
	return st
}

// factorPanel runs Task1 for panel p: factor the panel in place. It writes
// only panel p's columns, so it is safe to run concurrently with updates
// of other panels.
//
// The row swaps this stage owes to the already-factored columns on its
// left are deferred to finishLeftSwaps: applying them here would permute
// the L blocks that concurrent look-ahead updates of *earlier* stages are
// still reading (their target panels have only absorbed swaps up to their
// own stage). Deferring keeps every L block frozen in exactly the
// permutation state its consumers expect — the same reason HPL applies
// swaps to the L panel copy it broadcasts rather than in place.
func (st *state[T]) factorPanel(p int) error {
	if h := testHookPanelFact; h != nil {
		h(p)
	}
	lo, hi := panelCols(st.n, st.nb, p)
	w := hi - lo
	panel := st.a.View(lo, lo, st.n-lo, w)
	err := blas.Getf2(panel, st.piv[p])
	// L21 is final from here on (the swaps later stages owe it are
	// deferred to finishLeftSwaps), so pack it for the stage's updates.
	if hi < st.n {
		st.l21[p] = blas.PrepackA(st.a.View(hi, lo, st.n-hi, w), -1)
		if h := testHookL21; h != nil {
			h(p, +1)
		}
	}
	// Panel columns are matrix-local: rebase a singular report to the
	// absolute column so every driver names the same offender.
	return blas.OffsetSingular(err, lo)
}

// releaseL21 recycles stage s's packed L21, if it has one. Callers order
// it after the stage's last reader: updatePanel through left[s], the
// drivers' exit sweep by having joined every worker.
func (st *state[T]) releaseL21(s int) {
	if pa := st.l21[s]; pa != nil {
		st.l21[s] = nil
		pa.Release()
		if h := testHookL21; h != nil {
			h(s, -1)
		}
	}
}

// releaseAll is every driver's exit sweep: a factorization cut short (a
// contained panic, a cancelled context) leaves stages whose updates never
// all ran, and their slabs go back to the pool here. Must only run once no
// task is executing.
func (st *state[T]) releaseAll() {
	for s := range st.l21 {
		st.releaseL21(s)
	}
}

// finishLeftSwaps applies, stage by stage, each stage's row interchanges
// to the factored columns left of it. Row swaps on disjoint column ranges
// commute with everything that ran during factorization, so the final
// matrix is bitwise identical to the sequential algorithm's. Must be
// called after all tasks complete and before solving.
func (st *state[T]) finishLeftSwaps() {
	for s := 1; s < st.np; s++ {
		lo, _ := panelCols(st.n, st.nb, s)
		left := st.a.View(0, 0, st.n, lo)
		blas.Laswp(left, st.piv[s], lo)
	}
}

// updatePanel runs Task2(s, p): pivot, forward-solve and trailing-update
// panel p with the factors of stage s. workers parallelizes the DGEMM.
func (st *state[T]) updatePanel(s, p, workers int) {
	sLo, sHi := panelCols(st.n, st.nb, s)
	sw := sHi - sLo
	pLo, pHi := panelCols(st.n, st.nb, p)
	pw := pHi - pLo

	target := st.a.View(0, pLo, st.n, pw)
	// DLASWP: apply stage-s interchanges to the panel's columns.
	blas.Laswp(target, st.piv[s], sLo)
	// DTRSM: U block row of this panel.
	l11 := st.a.View(sLo, sLo, sw, sw)
	u12 := st.a.View(sLo, pLo, sw, pw)
	blas.Trsm(blas.Left, blas.Lower, false, blas.Unit, 1, l11, u12)
	// DGEMM: trailing block of this panel. With the stage's L21 already
	// packed only U12 is packed here; GemmPrepacked then runs exactly the
	// K-block schedule of the packed GEMM RankKUpdate would have made, so
	// this route and blas.Getrf's agree bit for bit in either precision.
	if sHi < st.n {
		pb := blas.PrepackB(u12)
		blas.GemmPrepacked(st.l21[s], pb, st.a.View(sHi, pLo, st.n-sHi, pw), workers)
		pb.Release()
	}
	if st.left[s].Add(-1) == 0 {
		st.releaseL21(s)
	}
}

// globalPivots flattens the per-stage local pivots into the absolute-row
// convention of blas.Getrf/LUSolve.
func (st *state[T]) globalPivots(piv []int) {
	if len(piv) != st.n {
		panic("lu: pivot slice must have length n")
	}
	for p := 0; p < st.np; p++ {
		lo, _ := panelCols(st.n, st.nb, p)
		for k, lp := range st.piv[p] {
			piv[lo+k] = lp + lo
		}
	}
}

// Solve factors a copy of A and solves A·x = b, returning the solution and
// the scaled HPL residual. driver is one of Sequential, StaticLookahead or
// Dynamic.
func Solve(a *matrix.Dense, b []float64, opts Options,
	driver func(*matrix.Dense, []int, Options) error) (x []float64, residual float64, err error) {
	return SolveCtx(context.Background(), a, b, opts, func(_ context.Context, a *matrix.Dense, piv []int, o Options) error {
		return driver(a, piv, o)
	})
}
