package lu

import (
	"context"
	"sync"
	"sync/atomic"

	"phihpl/internal/matrix"
	"phihpl/internal/pool"
)

// StaticLookahead factors a in place using the paper's baseline scheme
// (Section IV-B): stages separated by a global barrier, with the classic
// look-ahead twist — at each stage the next panel's update is done first
// and its factorization overlaps the remaining trailing updates, executed
// by a statically partitioned worker pool.
//
// The factors and pivots are bitwise identical to Sequential and Dynamic.
// A panic in any stage goroutine is contained and returned as a typed
// *pool.PanicError after the stage barrier, never crashing the process.
func StaticLookahead[T matrix.Float](a *matrix.Of[T], piv []int, opts Options) error {
	return runStatic(context.Background(), a, piv, opts)
}

// StaticLookaheadCtx is StaticLookahead under a context: cancellation is
// observed at every stage barrier — the in-flight stage finishes (its
// goroutines are always drained), no further stage starts, and ctx.Err()
// is returned, leaving the matrix partially factored.
func StaticLookaheadCtx[T matrix.Float](ctx context.Context, a *matrix.Of[T], piv []int, opts Options) error {
	return runStatic(ctx, a, piv, opts)
}

// runStatic is the shared driver behind StaticLookahead and
// StaticLookaheadCtx.
func runStatic[T matrix.Float](ctx context.Context, a *matrix.Of[T], piv []int, opts Options) error {
	opts = opts.withDefaults(a.Cols)
	st := newState(a, opts)
	// Every return below follows the join of the stage's goroutines.
	defer st.releaseAll()
	if err := ctx.Err(); err != nil {
		return err
	}
	var (
		firstErr error
		abort    atomic.Bool // containment tripped: workers stop early
		perrMu   sync.Mutex
		perr     *pool.PanicError
	)

	// Stage -1: factor panel 0 (on the caller, behind the recover barrier).
	if pe := protect(-1, func() {
		if err := st.factorPanel(0); err != nil && firstErr == nil {
			firstErr = err
		}
	}); pe != nil {
		return pe
	}

	for s := 0; s < st.np; s++ {
		last := s == st.np-1
		if last {
			break // nothing right of the final panel
		}
		// Super-step boundary: the cancellation check of the ctx variant.
		if err := ctx.Err(); err != nil {
			return err
		}
		// Look-ahead target first: update panel s+1 with stage s…
		if pe := protect(-1, func() { st.updatePanel(s, s+1, opts.Workers) }); pe != nil {
			return pe
		}

		// …then factor it concurrently with the rest of the stage-s
		// trailing updates (p = s+2 … np-1).
		var wg sync.WaitGroup
		errCh := make(chan error, 1)
		contain := func(pe *pool.PanicError) {
			if pe == nil {
				return
			}
			abort.Store(true)
			perrMu.Lock()
			if perr == nil {
				perr = pe
			}
			perrMu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			contain(protect(0, func() {
				if err := st.factorPanel(s + 1); err != nil {
					select {
					case errCh <- err:
					default:
					}
				}
			}))
		}()

		// Static partition of the remaining panels over the workers.
		rest := st.np - (s + 2)
		if rest > 0 {
			workers := opts.Workers
			if workers > rest {
				workers = rest
			}
			next := make(chan int, rest)
			for p := s + 2; p < st.np; p++ {
				next <- p
			}
			close(next)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for p := range next {
						if abort.Load() {
							return // containment tripped: stop this worker
						}
						contain(protect(w+1, func() { st.updatePanel(s, p, 1) }))
					}
				}(w)
			}
		}
		wg.Wait() // the global barrier the dynamic scheme eliminates
		perrMu.Lock()
		pe := perr
		perrMu.Unlock()
		if pe != nil {
			return pe
		}
		select {
		case err := <-errCh:
			if firstErr == nil {
				firstErr = err
			}
		default:
		}
	}

	st.finishLeftSwaps()
	st.globalPivots(piv)
	return firstErr
}
