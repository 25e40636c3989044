package offload

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"phihpl/internal/fault"
	"phihpl/internal/matrix"
	"phihpl/internal/pack"
	"phihpl/internal/pool"
)

// RealConfig configures the functional offload engine.
type RealConfig struct {
	// Mt, Nt are the nominal tile dimensions (0 -> 64; values larger than
	// the matrix clamp to its extents). The engine rounds them up to whole
	// micro-tiles of the packed operands (30×8 in FP64, 32×16 in FP32).
	Mt, Nt int
	// CardWorkers emulate coprocessor cards: goroutines that consume
	// tiles from the top-left, multiplying the packed operands into a
	// private copy of the tile and committing it under the tile's
	// ownership CAS, like a card shipping its result tile back.
	CardWorkers int
	// HostWorkers consume tiles from the bottom-right, multiplying the
	// same packed operands straight into C with the same micro-kernel
	// calls.
	HostWorkers int
	// StallTimeout arms the straggler monitor: a card worker whose
	// heartbeat goes silent for longer is declared lost, its
	// unacknowledged tile is reclaimed into the steal queue, and the run
	// degrades toward host-only execution instead of hanging. It must
	// comfortably exceed the compute time of one tile. 0 disables
	// monitoring (a wedged card worker then blocks the run, as a real
	// un-fenced offload would).
	StallTimeout time.Duration
	// Fault injects deterministic card-worker faults for chaos testing,
	// reusing the fault-plan machinery of the distributed layer: a
	// crash=w@t event kills card worker w at its t-th tile claim (before
	// computing), and stall=w@t:dur wedges it for dur at that claim. When
	// the plan schedules card faults and StallTimeout is zero, a default
	// of 50ms is applied so the faults are actually detected.
	Fault *fault.Plan
}

func (c RealConfig) withDefaults(m, n int) RealConfig {
	if c.Mt < 1 {
		c.Mt = 64
	}
	if c.Nt < 1 {
		c.Nt = 64
	}
	// Tile dims larger than the matrix are silently accepted by the tile
	// planner (it clamps), but a config echoing them back misleads; clamp
	// here so cfg always describes the grid actually used.
	if m > 0 && c.Mt > m {
		c.Mt = m
	}
	if n > 0 && c.Nt > n {
		c.Nt = n
	}
	if c.CardWorkers < 0 {
		c.CardWorkers = 0
	}
	if c.HostWorkers < 0 {
		c.HostWorkers = 0
	}
	if c.CardWorkers+c.HostWorkers == 0 {
		c.CardWorkers = 1
	}
	if c.StallTimeout == 0 && c.Fault != nil &&
		(len(c.Fault.Crashes) > 0 || len(c.Fault.Stalls) > 0) {
		c.StallTimeout = 50 * time.Millisecond
	}
	return c
}

// Stats reports how the tile grid was split by the work-stealing loop and
// what the straggler monitor had to do.
type Stats struct {
	CardTiles, HostTiles int
	// ReclaimedTiles counts tiles taken back from lost card workers and
	// re-queued; LostWorkers counts card workers declared dead by the
	// straggler monitor. Degraded is set whenever any card worker was
	// lost — the run completed on the surviving workers (host-only in the
	// worst case).
	ReclaimedTiles int
	LostWorkers    int
	Degraded       bool
}

// stealQueue hands out tile indices from both ends of [0, n), and serves
// tiles reclaimed from lost workers before fresh ones.
type stealQueue struct {
	mu         sync.Mutex
	head, tail int // head = next front index, tail = next back index
	reclaimed  []int
}

func newStealQueue(n int) *stealQueue { return &stealQueue{head: 0, tail: n - 1} }

// take claims the next tile — from the top-left when front is true, from
// the bottom-right otherwise; ok=false when nothing is claimable right now
// (reclaims may still arrive later).
func (q *stealQueue) take(front bool) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if k := len(q.reclaimed); k > 0 {
		i := q.reclaimed[k-1]
		q.reclaimed = q.reclaimed[:k-1]
		return i, true
	}
	if q.head > q.tail {
		return 0, false
	}
	if front {
		i := q.head
		q.head++
		return i, true
	}
	i := q.tail
	q.tail--
	return i, true
}

// push returns a reclaimed tile to the queue.
func (q *stealQueue) push(idx int) {
	q.mu.Lock()
	q.reclaimed = append(q.reclaimed, idx)
	q.mu.Unlock()
}

// testHookCardTile, when non-nil, runs on a card worker right before it
// computes a claimed tile. Set only by tests (before workers start) to
// inject panics into the card path.
var testHookCardTile func(worker, tile int)

// tile ownership states (owner[] values outside these are worker ids).
const (
	tileFree int32 = -1 // in the queue, unclaimed
	tileDone int32 = -2 // committed exactly once
)

// synthetic worker ids for the non-card claimants.
const (
	hostIDBase int32 = 1 << 20
	callerID   int32 = 1 << 21
)

// engine is the shared state of one ComputePacked run.
type engine[T matrix.Float] struct {
	ctx  context.Context
	a    *pack.AOf[T]
	b    *pack.BOf[T]
	c    *matrix.Of[T]
	plan TilePlan // in micro-tiles of a and b
	cfg  RealConfig
	q    *stealQueue
	nt   int
	in   *fault.Injector

	owner     []atomic.Int32 // per-tile: tileFree | worker id | tileDone
	committed atomic.Int32

	// Per card worker: last heartbeat (ns), declared-dead flag, and a
	// once-guard for releasing the worker's live slot (either the worker
	// exits or the monitor declares it dead — whichever happens first).
	beat     []atomic.Int64
	dead     []atomic.Bool
	released []atomic.Bool

	live    atomic.Int32
	allDone chan struct{}
	drained chan struct{}
	doneO   sync.Once
	drainO  sync.Once

	aborted atomic.Bool // a worker panicked: stop claiming
	perrMu  sync.Mutex
	perr    *pool.PanicError

	cardN, hostN, reclaimedN, lostN atomic.Int32
	degraded                        atomic.Bool
}

// Compute performs C += A·B (A: M×K, B: K×N, C: M×N) using the offload
// work-stealing schedule: A and B are packed once into the tiled Knights
// Corner layout, then card workers take tiles in column-major order from
// the front of the grid and host workers from the back, one tile at a
// time, until the grid is exhausted. Both lanes run the same micro-kernel
// calls over the same packed tiles, so C is bitwise pack.Gemm's result on
// those operands whichever lane ran each tile, whatever the worker mix,
// and however many card workers were lost on the way. A contained worker
// panic is re-raised here on the caller.
func Compute(a, b, c *matrix.Dense, cfg RealConfig) Stats {
	stats, err := ComputeCtx(context.Background(), a, b, c, cfg)
	if err != nil {
		// Background never cancels: only a contained panic arrives here.
		panic(err)
	}
	return stats
}

// ComputeCtx is Compute under a context with straggler recovery. The run
// stops handing out tiles once ctx is done and returns ctx.Err() together
// with the partial Stats (every in-flight tile is finished or discarded
// before return — no goroutine still writes C afterwards, except workers
// wedged with monitoring disabled). A panicking worker is contained into
// a *pool.PanicError instead of crashing the process. With
// cfg.StallTimeout armed, card workers that stall or die have their
// unacknowledged tiles reclaimed and the run completes on the survivors —
// host-only in the worst case — reporting the degradation in Stats.
func ComputeCtx(ctx context.Context, a, b, c *matrix.Dense, cfg RealConfig) (Stats, error) {
	return ComputePacked(ctx, pack.PackA(a, 0), pack.PackB(b), c, cfg)
}

// ComputePacked is ComputeCtx on operands already packed, in either
// precision: C += A·B with each engine tile a block of whole micro-tiles
// of a and b. A tile's C elements get exactly the pack.Kernel calls that
// pack.Gemm (and, for single-K-block operands, blas.GemmPrepacked) makes
// for them, so the result is bitwise theirs.
func ComputePacked[T matrix.Float](ctx context.Context, a *pack.AOf[T], b *pack.BOf[T], c *matrix.Of[T], cfg RealConfig) (Stats, error) {
	if a.K != b.K || c.Rows != a.M || c.Cols != b.N {
		panic("offload: Compute dimension mismatch")
	}
	cfg = cfg.withDefaults(c.Rows, c.Cols)
	if c.Rows == 0 || c.Cols == 0 || a.K == 0 {
		// Empty update: nothing to do, and the tile plan would degenerate
		// to a 0x0 grid (or tiles of a 0-deep product). Report it
		// explicitly.
		return Stats{}, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	mRuns.Load().Inc()
	plan := planMicro(c.Rows, c.Cols, cfg.Mt, cfg.Nt, a.TileM, pack.TileNOf[T]())
	e := &engine[T]{
		ctx: ctx, a: a, b: b, c: c, plan: plan, cfg: cfg,
		q:  newStealQueue(plan.NumTiles()),
		nt: plan.NumTiles(),
		in: fault.NewInjector(cfg.Fault),
	}
	e.owner = make([]atomic.Int32, e.nt)
	for i := range e.owner {
		e.owner[i].Store(tileFree)
	}
	e.beat = make([]atomic.Int64, cfg.CardWorkers)
	e.dead = make([]atomic.Bool, cfg.CardWorkers)
	e.released = make([]atomic.Bool, cfg.CardWorkers)
	e.allDone = make(chan struct{})
	e.drained = make(chan struct{})
	e.live.Store(int32(cfg.CardWorkers + cfg.HostWorkers))

	now := time.Now().UnixNano()
	for w := 0; w < cfg.CardWorkers; w++ {
		e.beat[w].Store(now)
		go e.runCard(w)
	}
	for h := 0; h < cfg.HostWorkers; h++ {
		go e.runHost(hostIDBase + int32(h))
	}
	monStop := make(chan struct{})
	var monWg sync.WaitGroup
	if cfg.StallTimeout > 0 && cfg.CardWorkers > 0 {
		monWg.Add(1)
		go func() {
			defer monWg.Done()
			e.monitor(monStop)
		}()
	}

	select {
	case <-e.allDone:
		<-e.drained // survivors exit promptly once every tile is committed
	case <-ctx.Done():
		<-e.drained // live workers finish their in-flight tile, then leave
	case <-e.drained:
		// Every worker exited or was declared dead before the grid was
		// done: the caller itself finishes host-side (host-only
		// degradation when all cards are lost and no host workers exist).
		e.callerDrain()
	}
	close(monStop)
	monWg.Wait()

	stats := Stats{
		CardTiles:      int(e.cardN.Load()),
		HostTiles:      int(e.hostN.Load()),
		ReclaimedTiles: int(e.reclaimedN.Load()),
		LostWorkers:    int(e.lostN.Load()),
		Degraded:       e.degraded.Load(),
	}
	e.perrMu.Lock()
	perr := e.perr
	e.perrMu.Unlock()
	if perr != nil {
		return stats, perr
	}
	if int(e.committed.Load()) != e.nt {
		return stats, ctx.Err()
	}
	return stats, nil
}

// stopNow reports whether claiming must stop (cancellation or contained
// panic elsewhere).
func (e *engine[T]) stopNow() bool {
	return e.aborted.Load() || e.ctx.Err() != nil
}

// panicked contains a worker panic: record it, stop the region.
func (e *engine[T]) panicked(worker int, v any) {
	e.aborted.Store(true)
	e.perrMu.Lock()
	if e.perr == nil {
		e.perr = &pool.PanicError{Worker: worker, Value: v, Stack: string(debug.Stack())}
	}
	e.perrMu.Unlock()
}

// tileCommitted advances the done count, closing allDone on the last tile.
func (e *engine[T]) tileCommitted() {
	if int(e.committed.Add(1)) == e.nt {
		e.doneO.Do(func() { close(e.allDone) })
	}
}

// releaseCard releases card worker w's live slot exactly once (self-exit
// or monitor declaration, whichever comes first).
func (e *engine[T]) releaseCard(w int) {
	if e.released[w].Swap(true) {
		return
	}
	e.releaseLive()
}

func (e *engine[T]) releaseLive() {
	if e.live.Add(-1) == 0 {
		e.drainO.Do(func() { close(e.drained) })
	}
}

// tileView returns the block of C tile idx covers.
func (e *engine[T]) tileView(idx int) *matrix.Of[T] {
	ta, tb, na, nb := e.plan.Tile(idx)
	tm, tn := e.a.TileM, pack.TileNOf[T]()
	r0, c0 := ta*tm, tb*tn
	return e.c.View(r0, c0, min(e.a.M-r0, na*tm), min(e.b.N-c0, nb*tn))
}

// addTile adds tile idx's block of A·B into dst, whose (0,0) is the
// tile's top-left C element: one pack.Kernel call per micro-tile, the
// call pack.Gemm makes for it. The card lane passes its private copy of
// the tile, the host lane C itself; an element's bits are the same
// either way.
func (e *engine[T]) addTile(idx int, dst *matrix.Of[T]) {
	ta0, tb0, na, nb := e.plan.Tile(idx)
	tm, tn := e.a.TileM, pack.TileNOf[T]()
	for ta := ta0; ta < ta0+na; ta++ {
		for tb := tb0; tb < tb0+nb; tb++ {
			off := (ta-ta0)*tm*dst.Stride + (tb-tb0)*tn
			pack.Kernel(e.a.Tile(ta), tm, e.a.K, e.b.Tile(tb), dst.Data[off:], dst.Stride, e.a.TileRows(ta), e.b.TileCols(tb))
		}
	}
}

// runCard is one coprocessor card worker: steal from the front,
// multiply into a private scratch tile, and commit the result under the
// tile's ownership CAS so a reclaimed tile is never written twice.
func (e *engine[T]) runCard(w int) {
	defer e.releaseCard(w)
	defer func() {
		if v := recover(); v != nil {
			e.panicked(w, v)
		}
	}()
	rec := obsTrace.Load()
	claims := 0
	for {
		if e.stopNow() || e.dead[w].Load() {
			return
		}
		idx, ok := e.q.take(true)
		if !ok {
			if int(e.committed.Load()) == e.nt {
				return
			}
			e.beat[w].Store(time.Now().UnixNano())
			time.Sleep(200 * time.Microsecond)
			continue
		}
		e.owner[idx].Store(int32(w))
		// Snapshot the destination before any stall point; after this,
		// the worker touches only private data until the commit CAS, so a
		// zombie never races a peer that recomputed its reclaimed tile.
		cv := e.tileView(idx)
		scratch := cv.Clone()
		// Post-snapshot heartbeat: the monitor's staleness read of this
		// store is what orders the snapshot before any reclaim.
		e.beat[w].Store(time.Now().UnixNano())
		if e.in.CrashAt(w, claims) {
			return // injected card death: the tile is reclaimed by the monitor
		}
		if d, ok := e.in.StallAt(w, claims); ok {
			time.Sleep(d)
		}
		claims++
		if e.dead[w].Load() {
			return // declared lost while wedged: discard, never commit
		}
		if h := testHookCardTile; h != nil {
			h(w, idx)
		}
		var t0 float64
		if rec != nil {
			t0 = rec.Start()
		}
		e.addTile(idx, scratch)
		if e.owner[idx].CompareAndSwap(int32(w), tileDone) {
			cv.CopyFrom(scratch)
			e.cardN.Add(1)
			if rec != nil {
				rec.Since(w, "offload.card_tile", idx, t0)
			}
			e.tileCommitted()
		}
		e.beat[w].Store(time.Now().UnixNano())
	}
}

// runHost is one host worker: steal from the back, multiply straight
// into C. Host workers are in-process and not monitored.
func (e *engine[T]) runHost(id int32) {
	defer e.releaseLive()
	defer func() {
		if v := recover(); v != nil {
			e.panicked(int(id), v)
		}
	}()
	for {
		if e.stopNow() {
			return
		}
		idx, ok := e.q.take(false)
		if !ok {
			if int(e.committed.Load()) == e.nt {
				return
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		e.runHostTile(id, idx)
	}
}

// runHostTile executes tile idx with the host path and commits it.
func (e *engine[T]) runHostTile(id int32, idx int) {
	rec := obsTrace.Load()
	var t0 float64
	if rec != nil {
		t0 = rec.Start()
	}
	e.owner[idx].Store(id)
	e.addTile(idx, e.tileView(idx))
	e.owner[idx].Store(tileDone)
	e.hostN.Add(1)
	if rec != nil {
		rec.Since(int(e.cfg.CardWorkers)+int(id-hostIDBase)%64, "offload.host_tile", idx, t0)
	}
	e.tileCommitted()
}

// callerDrain finishes remaining tiles on the calling goroutine with the
// host path, waiting on the monitor to reclaim tiles still owned by lost
// workers. Entered only when every worker goroutine is gone.
func (e *engine[T]) callerDrain() {
	for int(e.committed.Load()) != e.nt {
		if e.stopNow() {
			return
		}
		idx, ok := e.q.take(false)
		if !ok {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					e.panicked(int(callerID), v)
				}
			}()
			e.runHostTile(callerID, idx)
		}()
	}
}

// monitor is the straggler watchdog: a card worker silent for longer than
// StallTimeout is declared lost — its live slot is released, its
// unacknowledged tiles go back into the steal queue, and the run is
// marked degraded. Dead workers are re-swept every tick so a tile claimed
// in the instant before death cannot be orphaned.
func (e *engine[T]) monitor(stop chan struct{}) {
	interval := e.cfg.StallTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			now := time.Now().UnixNano()
			for w := range e.beat {
				if e.dead[w].Load() {
					e.reclaimFrom(w)
					continue
				}
				if now-e.beat[w].Load() > int64(e.cfg.StallTimeout) {
					e.declareDead(w)
				}
			}
		}
	}
}

// declareDead marks card worker w lost and reclaims its tiles.
func (e *engine[T]) declareDead(w int) {
	if e.dead[w].Swap(true) {
		return
	}
	if e.lostN.Add(1) == 1 {
		mDegradedRuns.Load().Inc()
	}
	e.degraded.Store(true)
	mLost.Load().Inc()
	e.reclaimFrom(w)
	e.releaseCard(w)
}

// reclaimFrom returns every tile still owned by (dead) worker w to the
// steal queue.
func (e *engine[T]) reclaimFrom(w int) {
	for idx := range e.owner {
		if e.owner[idx].CompareAndSwap(int32(w), tileFree) {
			e.q.push(idx)
			e.reclaimedN.Add(1)
			mReclaimed.Load().Inc()
		}
	}
}
