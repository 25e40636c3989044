package lu

import (
	"context"
	"runtime/debug"
	"sync"

	"phihpl/internal/dag"
	"phihpl/internal/matrix"
	"phihpl/internal/pool"
)

// Dynamic factors a in place using the DAG-based dynamic scheduler of
// Section IV: opts.Workers goroutines play the role of the paper's thread
// groups, each one's "master" claiming tasks from the shared compact DAG
// and executing them to completion. There are no global barriers; panel
// factorizations are issued with look-ahead priority the moment their
// dependencies resolve.
//
// The factors and pivots are bitwise identical to Sequential and
// StaticLookahead. With opts.Trace attached, every executed task emits a
// per-worker wall-clock span (PanelFact/Update), which is the real
// measured counterpart of the paper's Figure 7 Gantt chart.
//
// A panic inside a task is contained: the remaining workers stop claiming
// tasks, every goroutine drains, and the panic is returned as a typed
// *pool.PanicError instead of crashing the process.
func Dynamic[T matrix.Float](a *matrix.Of[T], piv []int, opts Options) error {
	_, err := runDynamic(context.Background(), a, piv, opts)
	return err
}

// DynamicCtx is Dynamic under a context: cancellation is observed at every
// DAG task-issue boundary — once ctx is done no further task is claimed,
// all workers drain, and ctx.Err() is returned. The matrix contents are
// then an unspecified partial factorization and must not be used.
func DynamicCtx[T matrix.Float](ctx context.Context, a *matrix.Of[T], piv []int, opts Options) error {
	_, err := runDynamic(ctx, a, piv, opts)
	return err
}

// DynamicStats factors like Dynamic and additionally returns the scheduler
// statistics (critical-section entries, tasks issued), which back the
// contention ablation in the benchmarks.
func DynamicStats[T matrix.Float](a *matrix.Of[T], piv []int, opts Options) (dag.Stats, error) {
	sched, err := runDynamic(context.Background(), a, piv, opts)
	return sched.Stats(), err
}

// runDynamic is the shared driver behind Dynamic, DynamicCtx and
// DynamicStats.
func runDynamic[T matrix.Float](ctx context.Context, a *matrix.Of[T], piv []int, opts Options) (*dag.Scheduler, error) {
	opts = opts.withDefaults(a.Cols)
	st := newState(a, opts)
	defer st.releaseAll() // runs after wg.Wait on every path below
	sched := dag.New(st.np)
	if err := ctx.Err(); err != nil {
		return sched, err
	}
	rec := opts.Trace

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		perr     *pool.PanicError
	)
	for g := 0; g < opts.Workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Recover barrier: a panicking task must fail the solve, not
			// kill the process. The claimed task is deliberately left
			// un-Completed — Stop releases the workers parked on its
			// dependents and keeps the running ones from claiming more.
			defer func() {
				if v := recover(); v != nil {
					sched.Stop()
					errMu.Lock()
					if perr == nil {
						perr = &pool.PanicError{Worker: g, Value: v, Stack: string(debug.Stack())}
					}
					errMu.Unlock()
				}
			}()
			for {
				// Task-issue boundary: the cancellation check of DynamicCtx.
				// A worker is only ever parked behind one that is running a
				// task, and that one passes through here next, so nobody
				// outwaits a cancellation by more than a task.
				if ctx.Err() != nil {
					sched.Stop()
					return
				}
				// An idle group parks inside the scheduler until a
				// completion makes work for it, the DAG is done, or a
				// worker stopped it.
				task, ok := sched.NextWait()
				if !ok {
					return
				}
				var t0 float64
				if rec != nil {
					t0 = rec.Start()
				}
				switch task.Kind {
				case dag.PanelFact:
					if err := st.factorPanel(task.Panel); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
					}
				case dag.Update:
					st.updatePanel(task.Stage, task.Panel, 1)
				}
				if rec != nil {
					rec.Since(g, task.Kind.String(), task.Stage, t0)
				}
				sched.Complete(task)
			}
		}(g)
	}
	wg.Wait()

	errMu.Lock()
	pe, fe := perr, firstErr
	errMu.Unlock()
	if pe != nil {
		return sched, pe
	}
	if !sched.Done() {
		// Cut short without a panic: only cancellation stops the DAG early.
		if err := ctx.Err(); err != nil {
			return sched, err
		}
		return sched, context.Canceled
	}
	st.finishLeftSwaps()
	st.globalPivots(piv)
	return sched, fe
}
