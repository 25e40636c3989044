// Package cluster provides the multi-node substrate for distributed
// Linpack: a real in-process message-passing fabric (ranks as goroutines,
// typed point-to-point sends, broadcasts, barriers) used by the functional
// distributed LU drivers, and an α-β cost model of the single-rail FDR
// InfiniBand network used by the virtual-time hybrid HPL simulation.
//
// The fabric is fault-aware. Every blocking operation returns a typed
// error instead of hanging: ErrTimeout when the world's per-operation
// timeout elapses, ErrRankFailed when the peer's goroutine has died, and
// ErrAborted once any rank has failed and the world is tearing down. When
// a fault.Injector is attached (chaos mode), the transport switches to
// sequence-numbered packets with checksums, acknowledgements and capped
// exponential-backoff retransmission, so dropped, duplicated, delayed or
// corrupted messages are recovered transparently — see transport.go. A
// progress watchdog can be armed to dump per-rank state (iteration, last
// tag sent/received) when the whole world stops making progress.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"phihpl/internal/fault"
)

// Typed fabric errors. Operations wrap them in *OpError; match with
// errors.Is.
var (
	// ErrTimeout: a blocking operation exceeded the world's Timeout.
	ErrTimeout = errors.New("cluster: operation timed out")
	// ErrRankFailed: the peer rank's goroutine returned an error or
	// panicked, so the operation can never complete.
	ErrRankFailed = errors.New("cluster: peer rank failed")
	// ErrAborted: some rank failed and the world is tearing down.
	ErrAborted = errors.New("cluster: world aborted after rank failure")
	// ErrInvalidRank: the destination or source rank is out of range.
	ErrInvalidRank = errors.New("cluster: invalid rank")
	// ErrTagMismatch: the received message carries an unexpected tag — the
	// Linpack protocols are deterministic, so this is a protocol bug.
	ErrTagMismatch = errors.New("cluster: tag mismatch")
)

// OpError describes a failed fabric operation; Unwrap yields the typed
// cause (ErrTimeout, ErrRankFailed, ...).
type OpError struct {
	Rank int    // the rank that issued the operation
	Op   string // "send", "recv", "bcast", "barrier", "progress"
	Peer int    // the peer rank, -1 for collectives
	Tag  int    // the message tag, -1 for collectives
	Err  error
}

func (e *OpError) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("cluster: rank %d %s peer %d tag %d: %v", e.Rank, e.Op, e.Peer, e.Tag, e.Err)
	}
	return fmt.Sprintf("cluster: rank %d %s: %v", e.Rank, e.Op, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// RankPanicError is a panic recovered from a rank's goroutine by
// World.Run; it matches ErrRankFailed under errors.Is.
type RankPanicError struct {
	Rank  int
	Value any
	Stack string
}

func (e *RankPanicError) Error() string {
	return fmt.Sprintf("cluster: rank %d panicked: %v", e.Rank, e.Value)
}

// Is makes errors.Is(err, ErrRankFailed) succeed.
func (e *RankPanicError) Is(target error) bool { return target == ErrRankFailed }

// Msg is one message: a tag for protocol sanity checking plus float and
// int payloads (matrix panels and pivot vectors). F32 carries
// single-precision panels for the mixed-precision distributed drivers —
// half the wire bytes of the same panel in F, and covered by the same
// end-to-end checksum in chaos mode.
type Msg struct {
	Src, Tag int
	F        []float64
	F32      []float32
	I        []int
}

// Options configure a world beyond its rank count.
type Options struct {
	// Buffer is the per-pair channel depth; sized by callers to absorb a
	// stage's worth of eagerly sent blocks (default 16).
	Buffer int
	// Timeout bounds every blocking Send/Recv/Barrier; 0 blocks forever
	// (the pre-fault-tolerance behavior).
	Timeout time.Duration
	// Injector enables chaos mode: the transport switches to
	// sequence-numbered, acknowledged, checksummed packets and the
	// injector decides each transmission's fate.
	Injector *fault.Injector
	// Watchdog, when positive, arms a monitor that logs per-rank state
	// (iteration, last tags) whenever no rank makes progress for this
	// long.
	Watchdog time.Duration
	// Logf receives watchdog dumps (default: standard error).
	Logf func(format string, args ...any)
}

// World is a communicator for `size` ranks.
type World struct {
	size  int
	opt   Options
	lossy bool // chaos transport active (Injector != nil)

	data [][]chan *packet // data[src][dst]
	acks [][]chan uint64  // cumulative acks for link src→dst (lossy mode)
	out  [][]chan *packet // sender-side outbox per link (lossy mode)

	// Per-link sequence counters. sendSeq[s][d] is touched only by rank
	// s's goroutine, recvSeq[s][d] only by rank d's — single-writer by
	// construction.
	sendSeq [][]uint64
	recvSeq [][]uint64

	bar *barrier

	failed   []chan struct{} // closed when rank r fails
	failOnce []sync.Once
	abort    chan struct{} // closed on first rank failure
	abortOne sync.Once
	stop     chan struct{} // closed when Run finishes; terminates helpers
	helpers  sync.WaitGroup

	prog    []rankProgress
	resends atomic.Uint64
	rejects atomic.Uint64 // packets discarded on checksum mismatch
}

// rankProgress is the watchdog's per-rank view, updated with atomics only.
type rankProgress struct {
	iter     atomic.Int64
	sentTag  atomic.Int64
	sentPeer atomic.Int64
	recvTag  atomic.Int64
	recvPeer atomic.Int64
	ops      atomic.Uint64
	sends    atomic.Uint64
	state    atomic.Int32 // 0 running, 1 done, 2 failed
}

// Stats reports the transport's recovery work and the injected faults.
type Stats struct {
	// Resends counts retransmissions after an acknowledgement timeout.
	Resends uint64
	// ChecksumRejects counts packets discarded as corrupt on receive.
	ChecksumRejects uint64
	// Faults are the injector's counters (zero without an injector).
	Faults fault.Stats
}

// NewWorld builds a clean world (no faults, no timeouts) with the given
// rank count and per-pair buffer — the fast path used by the plain
// distributed solvers.
func NewWorld(size, buffer int) *World {
	return NewWorldOpts(size, Options{Buffer: buffer})
}

// NewWorldOpts builds a world with explicit options. size < 1 is a
// provable caller bug and panics.
func NewWorldOpts(size int, opt Options) *World {
	if size < 1 {
		panic("cluster: need at least one rank")
	}
	if opt.Buffer < 1 {
		opt.Buffer = 16
	}
	if opt.Logf == nil {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	w := &World{
		size:  size,
		opt:   opt,
		lossy: opt.Injector != nil,
		bar:   newBarrier(size),
		abort: make(chan struct{}),
		stop:  make(chan struct{}),
	}
	w.data = make([][]chan *packet, size)
	w.sendSeq = make([][]uint64, size)
	w.recvSeq = make([][]uint64, size)
	if w.lossy {
		w.acks = make([][]chan uint64, size)
		w.out = make([][]chan *packet, size)
	}
	for s := 0; s < size; s++ {
		w.data[s] = make([]chan *packet, size)
		w.sendSeq[s] = make([]uint64, size)
		w.recvSeq[s] = make([]uint64, size)
		if w.lossy {
			w.acks[s] = make([]chan uint64, size)
			w.out[s] = make([]chan *packet, size)
		}
		for d := 0; d < size; d++ {
			w.data[s][d] = make(chan *packet, opt.Buffer)
			if w.lossy {
				w.acks[s][d] = make(chan uint64, 4*opt.Buffer+64)
				w.out[s][d] = make(chan *packet, opt.Buffer)
			}
		}
	}
	w.failed = make([]chan struct{}, size)
	w.failOnce = make([]sync.Once, size)
	for r := 0; r < size; r++ {
		w.failed[r] = make(chan struct{})
	}
	w.prog = make([]rankProgress, size)
	return w
}

// Size returns the rank count.
func (w *World) Size() int { return w.size }

// SendCount reports how many point-to-point sends the given rank has
// issued so far; summed over the ranks it is a protocol's message count,
// which the grid solver's tests pin per solve.
func (w *World) SendCount(rank int) uint64 {
	if rank < 0 || rank >= w.size {
		return 0
	}
	return w.prog[rank].sends.Load()
}

// Stats snapshots the recovery counters. Meaningful after Run returns.
func (w *World) Stats() Stats {
	return Stats{
		Resends:         w.resends.Load(),
		ChecksumRejects: w.rejects.Load(),
		Faults:          w.opt.Injector.Stats(),
	}
}

// Run launches fn on every rank concurrently and waits for all to finish.
// A rank that panics is recovered into a *RankPanicError instead of
// wedging the process; the first rank failure (error return or panic)
// marks the rank failed and aborts the world, so every peer blocked on it
// unblocks with a typed error. The returned error joins every rank's
// error (nil when all ranks succeed). A world is good for one Run.
func (w *World) Run(fn func(c *Comm) error) error {
	if w.lossy {
		for s := 0; s < w.size; s++ {
			for d := 0; d < w.size; d++ {
				w.helpers.Add(1)
				go w.linkWorker(s, d)
			}
		}
	}
	if w.opt.Watchdog > 0 {
		w.helpers.Add(1)
		go w.watchdog()
	}

	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[rank] = &RankPanicError{Rank: rank, Value: v, Stack: string(debug.Stack())}
					w.rankFailed(rank)
				}
			}()
			if err := fn(&Comm{world: w, rank: rank}); err != nil {
				errs[rank] = err
				w.rankFailed(rank)
			} else {
				w.prog[rank].state.Store(1)
			}
		}(r)
	}
	wg.Wait()
	close(w.stop)
	w.helpers.Wait()
	return errors.Join(errs...)
}

// rankFailed marks the rank dead, breaks the barrier and aborts the world.
func (w *World) rankFailed(rank int) {
	w.prog[rank].state.Store(2)
	w.failOnce[rank].Do(func() { close(w.failed[rank]) })
	w.bar.fail(ErrRankFailed)
	w.abortOne.Do(func() { close(w.abort) })
}

// opTimer returns a timeout channel honoring Options.Timeout (nil channel
// — never fires — when no timeout is set) and its cleanup func.
func (w *World) opTimer() (<-chan time.Time, func()) {
	if w.opt.Timeout <= 0 {
		return nil, func() {}
	}
	t := time.NewTimer(w.opt.Timeout)
	return t.C, func() { t.Stop() }
}

// watchdog logs per-rank state whenever no rank makes progress for a full
// interval.
func (w *World) watchdog() {
	defer w.helpers.Done()
	tick := time.NewTicker(w.opt.Watchdog)
	defer tick.Stop()
	last := w.opsSum()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			cur := w.opsSum()
			if cur != last {
				last = cur
				continue
			}
			w.dumpState()
		}
	}
}

func (w *World) opsSum() uint64 {
	var s uint64
	for r := range w.prog {
		s += w.prog[r].ops.Load() + uint64(w.prog[r].state.Load())
	}
	return s
}

// dumpState writes the stall report the tentpole asks for: per-rank
// iteration and last tags exchanged.
func (w *World) dumpState() {
	w.opt.Logf("cluster: no progress for %v; per-rank state:", w.opt.Watchdog)
	states := [...]string{"running", "done", "failed"}
	for r := range w.prog {
		p := &w.prog[r]
		w.opt.Logf("  rank %d [%s] iter=%d lastSent tag=%d→%d lastRecv tag=%d←%d ops=%d",
			r, states[p.state.Load()], p.iter.Load(),
			p.sentTag.Load(), p.sentPeer.Load(),
			p.recvTag.Load(), p.recvPeer.Load(), p.ops.Load())
	}
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this endpoint's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Progress records the rank's current iteration for the watchdog and
// fires any rank-level injected faults pinned to it: a planned stall
// sleeps here (interruptibly), a planned crash returns a *fault.CrashError
// the rank program must propagate.
func (c *Comm) Progress(iter int) error {
	w := c.world
	p := &w.prog[c.rank]
	p.iter.Store(int64(iter))
	p.ops.Add(1)
	in := w.opt.Injector
	if in == nil {
		return nil
	}
	if d, ok := in.StallAt(c.rank, iter); ok {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-w.abort:
			t.Stop()
			return &OpError{Rank: c.rank, Op: "progress", Peer: -1, Tag: -1, Err: ErrAborted}
		}
	}
	if in.CrashAt(c.rank, iter) {
		return &fault.CrashError{Rank: c.rank, Iter: iter}
	}
	return nil
}

// BcastTree returns rank me's position in the binomial broadcast tree
// rooted at root over a communicator of m ranks: the parent it receives
// from (-1 at the root) and the children it forwards to, in send order.
// The tree is the textbook MPI construction over rank positions relative
// to the root: a node at relative position rel receives from
// rel − lowestSetBit(rel) and sends to rel+mask for each mask below its
// own lowest set bit (the root, rel 0, sends for every power of two
// below m). Every rank appears exactly once and the root performs only
// ceil(log2 m) sends instead of m−1.
func BcastTree(m, root, me int) (parent int, children []int) {
	rel := ((me-root)%m + m) % m
	top := 1
	for top < m {
		top <<= 1
	}
	first := top // first mask to try, halved before use
	if rel != 0 {
		low := rel & -rel
		parent = ((rel - low) + root) % m
		first = low
	} else {
		parent = -1
	}
	for mask := first >> 1; mask >= 1; mask >>= 1 {
		if child := rel + mask; child < m {
			children = append(children, (child+root)%m)
		}
	}
	return parent, children
}

// Bcast distributes root's payload to every rank and returns the received
// (or original) message. It runs over the binomial tree from BcastTree —
// O(log P) root sends, with interior ranks relaying the payload bitwise —
// matching CostModel.BcastTree.
func (c *Comm) Bcast(root, tag int, f []float64, ints []int) (Msg, error) {
	parent, children := BcastTree(c.world.size, root, c.rank)
	m := Msg{Src: root, Tag: tag, F: f, I: ints}
	if parent >= 0 {
		got, err := c.Recv(parent, tag)
		if err != nil {
			return Msg{}, err
		}
		got.Src = root
		m = got
	}
	for _, child := range children {
		if err := c.Send(child, tag, m.F, m.I); err != nil {
			return Msg{}, err
		}
	}
	return m, nil
}

// Barrier blocks until every rank has arrived, the world's timeout
// elapses (ErrTimeout), or a rank fails (ErrRankFailed / ErrAborted). A
// broken barrier stays broken: the bulk-synchronous solvers cannot
// continue past a failed synchronization point.
func (c *Comm) Barrier() error {
	w := c.world
	w.prog[c.rank].ops.Add(1)
	if err := w.bar.await(w); err != nil {
		return &OpError{Rank: c.rank, Op: "barrier", Peer: -1, Tag: -1, Err: err}
	}
	return nil
}

// barrier is a reusable counting barrier that supports timeout and
// rank-failure wakeup.
type barrier struct {
	mu     sync.Mutex
	size   int
	count  int
	cur    *barGen
	broken error
}

type barGen struct {
	done      chan struct{}
	err       error
	completed bool
}

func newBarrier(size int) *barrier {
	return &barrier{size: size, cur: &barGen{done: make(chan struct{})}}
}

func (b *barrier) await(w *World) error {
	b.mu.Lock()
	if b.broken != nil {
		err := b.broken
		b.mu.Unlock()
		return err
	}
	g := b.cur
	b.count++
	if b.count == b.size {
		b.count = 0
		g.completed = true
		close(g.done)
		b.cur = &barGen{done: make(chan struct{})}
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()

	timerC, stopTimer := w.opTimer()
	defer stopTimer()
	select {
	case <-g.done:
		b.mu.Lock()
		err := g.err
		b.mu.Unlock()
		return err
	case <-timerC:
		mTimeouts.Load().Inc()
		return b.breakGen(g, ErrTimeout)
	case <-w.abort:
		return b.breakGen(g, ErrAborted)
	}
}

// breakGen marks the generation failed and wakes its waiters, unless it
// completed while the caller was racing to break it.
func (b *barrier) breakGen(g *barGen, cause error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if g.completed {
		return g.err
	}
	if b.broken == nil {
		b.broken = cause
	}
	g.err = b.broken
	g.completed = true
	close(g.done)
	b.count = 0
	b.cur = &barGen{done: make(chan struct{})}
	return g.err
}

// fail permanently breaks the barrier (a rank died; it can never arrive).
func (b *barrier) fail(cause error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken == nil {
		b.broken = cause
	}
	g := b.cur
	if !g.completed {
		g.err = b.broken
		g.completed = true
		close(g.done)
		b.count = 0
		b.cur = &barGen{done: make(chan struct{})}
	}
}
