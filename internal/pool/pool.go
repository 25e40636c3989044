// Package pool provides a persistent, package-level worker pool for the
// compute kernels. The paper's DGEMM keeps its thread team alive across
// calls (threads are pinned once at startup and park between outer
// products); spawning fresh goroutines per DGEMM invocation costs a
// scheduler round-trip on every trailing update. Here the workers are
// started once, on first use, and every parallel region afterwards is a
// channel send plus an atomic work-stealing counter: zero goroutine
// creation in the steady state. Every GEMM of a rank-k update runs its
// tile grid here — blas.GemmPacked, blas.GemmPrepacked and pack.Gemm
// under it — whatever k is.
//
// Callers always participate in their own region (the calling goroutine
// executes jobs alongside the pool), so a saturated pool degrades to
// serial execution instead of deadlocking, and nested or concurrent
// regions from independent callers interleave safely: pool workers never
// block on the pool themselves.
//
// The pool is flat: any worker may claim any index, and no worker is
// pinned to a CPU. Groups reports the machine's socket count for run
// records only.
//
// Robustness: every job runs behind a recover barrier. A panic inside fn
// never crashes a pool worker goroutine (which would kill the process);
// it is converted into a typed *PanicError — returned by DoCtx, re-raised
// on the caller by Do — and the region stops handing out further indices.
// DoCtx additionally observes a context: once the context is done, no new
// index is issued and the region unwinds with ctx.Err().
//
// Observability: SetObservability attaches a span recorder (one span per
// helper/caller participation in a region, on the helper's stable worker
// id; callers share lane Size()) and a metrics registry (region count,
// queue-full helper drops). Both default to off; the uninstrumented hot
// path costs two atomic pointer loads and allocates nothing.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"phihpl/internal/metrics"
	"phihpl/internal/trace"
)

var (
	once   sync.Once
	submit chan func(worker int)
	nproc  int

	obsTrace   atomic.Pointer[trace.Recorder]
	mRegions   atomic.Pointer[metrics.Counter]
	mDrops     atomic.Pointer[metrics.Counter]
	mSerialCnt atomic.Pointer[metrics.Counter]
	mCancelled atomic.Pointer[metrics.Counter]
	mPanicsCnt atomic.Pointer[metrics.Counter]
)

// PanicError is a panic recovered from a region job by the pool's recover
// barrier, mirroring cluster.RankPanicError: the worker lane that ran the
// job (Size() for the region caller, -1 for a serial region), the
// recovered value and the stack at the panic site. DoCtx returns it; Do
// re-panics with it on the caller so a library panic can never take down
// an unrelated pool worker goroutine.
type PanicError struct {
	Worker int
	Value  any
	Stack  string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job panicked on worker %d: %v", e.Worker, e.Value)
}

// SetObservability attaches a span recorder and a metrics registry to the
// pool. Either may be nil to disable that side; calling with (nil, nil)
// detaches everything. Counters registered: pool.regions (parallel
// regions entered), pool.serial_regions (regions degraded to the serial
// caller-only path), pool.queue_full_drops (regions that dropped their
// remaining helper slots because the submit queue was full),
// pool.cancelled_regions (regions cut short by context cancellation),
// pool.contained_panics (job panics converted to PanicError). Safe to
// call at any time; producers observe the new sinks on their next region.
func SetObservability(rec *trace.Recorder, reg *metrics.Registry) {
	obsTrace.Store(rec)
	mRegions.Store(reg.Counter("pool.regions"))
	mSerialCnt.Store(reg.Counter("pool.serial_regions"))
	mDrops.Store(reg.Counter("pool.queue_full_drops"))
	mCancelled.Store(reg.Counter("pool.cancelled_regions"))
	mPanicsCnt.Store(reg.Counter("pool.contained_panics"))
}

// ensure starts the long-lived workers exactly once.
func ensure() {
	once.Do(func() {
		nproc = runtime.GOMAXPROCS(0)
		submit = make(chan func(worker int), 4*nproc)
		for i := 0; i < nproc; i++ {
			go func(id int) {
				for f := range submit {
					f(id)
				}
			}(i)
		}
	})
}

// Size returns the number of persistent workers (GOMAXPROCS at first use).
func Size() int {
	ensure()
	return nproc
}

// Do runs fn(i) for every i in [0,n), distributing the indices across the
// calling goroutine plus up to workers-1 pool workers via an atomic
// work-stealing counter. It returns when every index has been processed.
//
// workers <= 1 (or n <= 1) runs serially on the caller with no
// synchronization at all. If the pool's submit queue is full — only
// possible when many independent regions are in flight — the remaining
// helper slots are dropped rather than blocked on: the caller still
// drains the whole index space itself, so progress is guaranteed.
//
// A panic inside fn is contained by the recover barrier and re-raised
// here, on the caller, as a *PanicError; pool worker goroutines survive.
func Do(n, workers int, fn func(i int)) {
	if err := run(nil, n, workers, fn); err != nil {
		panic(err)
	}
}

// DoCtx is Do under a context: the region stops handing out work-stealing
// indices once ctx is done and returns ctx.Err() (already-running jobs
// finish; indices are never abandoned half-executed). A job panic is
// contained and returned as a *PanicError instead of crashing the
// process. DoCtx returns nil exactly when fn ran to completion for every
// index in [0,n).
func DoCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		mCancelled.Load().Inc()
		return err
	}
	return run(ctx, n, workers, fn)
}

// region is the shared state of one parallel Do/DoCtx
// invocation. Regions are recycled through a sync.Pool: together with the
// single hoisted helper closure in run, a steady-state parallel region
// allocates one closure, not one region + one closure per helper — the
// fix for the per-K-block allocation growth the benchmark file showed at
// n=512 (allocs_per_op doubling with the K-block count).
type region struct {
	n    int64
	fn   func(i int)
	rec  *trace.Recorder
	task func(worker int) // created once per region object, reused forever
	next atomic.Int64     // work-stealing index counter
	done atomic.Int64     // indices that completed normally
	stop atomic.Bool      // no further indices: panic or cancellation
	wg   sync.WaitGroup

	mu   sync.Mutex
	perr *PanicError
}

var regionPool = sync.Pool{New: func() any {
	r := new(region)
	// The helper task is bound to the region object, not the invocation:
	// recycling the region recycles the closure, so a steady-state
	// parallel region performs zero heap allocations.
	r.task = func(worker int) {
		defer r.wg.Done()
		if rec := r.rec; rec != nil {
			t0 := rec.Start()
			r.loop(worker)
			rec.Since(worker, "pool.Do", -1, t0)
			return
		}
		r.loop(worker)
	}
	return r
}}

// protect runs fn(i) behind the recover barrier. A nil return means the
// job completed; non-nil carries the contained panic. It allocates only
// on the panic path.
func protect(fn func(i int), worker, i int) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			pe = &PanicError{Worker: worker, Value: v, Stack: string(debug.Stack())}
		}
	}()
	fn(i)
	return nil
}

// panicked records the first contained panic and stops the region.
func (r *region) panicked(pe *PanicError) {
	r.stop.Store(true)
	mPanicsCnt.Load().Inc()
	r.mu.Lock()
	if r.perr == nil {
		r.perr = pe
	}
	r.mu.Unlock()
}

// loop drains indices until the space is exhausted or the region stopped.
func (r *region) loop(worker int) {
	for !r.stop.Load() {
		i := r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		if pe := protect(r.fn, worker, int(i)); pe != nil {
			r.panicked(pe)
			return
		}
		r.done.Add(1)
	}
}

// run is the shared driver behind Do (ctx == nil) and DoCtx.
func run(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		mSerialCnt.Load().Inc()
		for i := 0; i < n; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					mCancelled.Load().Inc()
					return err
				}
			}
			if pe := protect(fn, -1, i); pe != nil {
				mPanicsCnt.Load().Inc()
				return pe
			}
		}
		return nil
	}
	ensure()
	mRegions.Load().Inc()
	rec := obsTrace.Load()
	r := regionPool.Get().(*region)
	r.n, r.fn, r.rec = int64(n), fn, rec
	r.next.Store(0)
	r.done.Store(0)
	r.stop.Store(false)
	r.perr = nil
	if ctx != nil {
		unwatch := context.AfterFunc(ctx, func() { r.stop.Store(true) })
		defer unwatch()
	}
	for h := 0; h < workers-1; h++ {
		r.wg.Add(1)
		select {
		case submit <- r.task:
		default:
			// Queue full: run with fewer helpers instead of blocking.
			mDrops.Load().Inc()
			r.wg.Done()
			h = workers // stop submitting
		}
	}
	if rec != nil {
		// The caller's own participation, on the shared caller lane.
		t0 := rec.Start()
		r.loop(nproc)
		rec.Since(nproc, "pool.Do", -1, t0)
	} else {
		r.loop(nproc)
	}
	r.wg.Wait()

	perr := r.perr
	completed := r.done.Load() == r.n
	r.fn, r.rec, r.perr = nil, nil, nil
	regionPool.Put(r)
	if perr != nil {
		return perr
	}
	if completed {
		return nil
	}
	// Cut short without a panic: only cancellation can have stopped us.
	mCancelled.Load().Inc()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}
