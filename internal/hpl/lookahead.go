package hpl

// Look-ahead schedules for the real 2D distributed HPL driver — the
// paper's none → basic → pipelined ladder (Section V, Fig. 8/9) applied
// to the functional in-process grid. The three run one protocol, one
// stage loop (stage): the panel gathered, factored and scattered in one
// message per rank pair, its L and pivots broadcast together over the
// binomial tree of cluster.BcastTree (the pivots have no message of
// their own), the stage's row swaps coalesced into one packed exchange
// per peer, and per owned block column the swap, DTRSM, tree U broadcast
// and prepacked trailing GEMM. The mode sets two switches:
//
//   - look-ahead (aheadOK): basic and pipelined update block column k+1
//     first, then factor panel k+1 and post its broadcast (postPanel, the
//     one factor-and-post of every schedule) before the rest of update
//     k; none factors every panel at the start of its own stage.
//   - the async GEMM lane (startPipe): pipelined hands each column's
//     GEMM to a worker goroutine, so the next column's swap, DTRSM and U
//     broadcast overlap it; none and basic run the GEMM inline.
//
// Every mode reorders work only across disjoint blocks and applies row
// swaps as exact permutations, and the packed update depends on k alone,
// so the factors are bitwise identical to the sequential blocked
// algorithm (and to each other).
import (
	"context"
	"fmt"
	"sort"
	"sync"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/matrix"
	"phihpl/internal/offload"
	"phihpl/internal/pool"
	"phihpl/internal/trace"
)

// LookaheadMode selects the stage schedule of the 2D distributed solver.
// The zero value is LookaheadPipelined: the fastest schedule is the
// default, and all modes produce bitwise-identical results.
type LookaheadMode int

const (
	// LookaheadPipelined software-pipelines swap/DTRSM/U-broadcast per
	// block column over the GEMM of the previous column (paper Fig. 9).
	LookaheadPipelined LookaheadMode = iota
	// LookaheadBasic factors panel k+1 and posts its broadcast before
	// finishing trailing update k (paper Fig. 8).
	LookaheadBasic
	// LookaheadNone runs the same stage with neither look-ahead nor the
	// async GEMM lane: nothing overlaps the update.
	LookaheadNone
)

// String returns the CLI spelling of the mode.
func (m LookaheadMode) String() string {
	switch m {
	case LookaheadNone:
		return "none"
	case LookaheadBasic:
		return "basic"
	case LookaheadPipelined:
		return "pipelined"
	}
	return fmt.Sprintf("LookaheadMode(%d)", int(m))
}

// Depth returns the HPL.dat DEPTH that names the mode: 0 none, 1 basic,
// 2 pipelined.
func (m LookaheadMode) Depth() int { return 2 - int(m) }

// ParseLookaheadMode parses the CLI spelling of a look-ahead mode.
func ParseLookaheadMode(s string) (LookaheadMode, error) {
	switch s {
	case "none":
		return LookaheadNone, nil
	case "basic":
		return LookaheadBasic, nil
	case "pipelined":
		return LookaheadPipelined, nil
	}
	return 0, fmt.Errorf("hpl: unknown look-ahead mode %q (want none, basic or pipelined)", s)
}

func (g *grid2d[T]) me() int { return g.rank(g.p, g.q) }

// tspan records one protocol-phase trace span for this rank.
func (g *grid2d[T]) tspan(name string, k int, ts float64) {
	g.rec.Since(g.me(), name, k, ts)
}

// aheadOK reports whether panel `next` may be factored eagerly during
// the current stage. The FT solver blocks look-ahead across super-step
// boundaries so verification and checkpoints always see an untouched
// next panel.
func (g *grid2d[T]) aheadOK(next int) bool {
	return g.mode != LookaheadNone && next < g.nBlocks && (g.checkEvery == 0 || next%g.checkEvery != 0)
}

// recordPivots folds the stage's panel-relative pivots into the global
// pivot vector.
func (g *grid2d[T]) recordPivots(k int, piv []int) {
	for j, pv := range piv {
		g.globalPiv[k*g.nb+j] = k*g.nb + pv
	}
}

// panelView is this rank's share of panel k on a panel-column rank: its
// rows of block column k from block row k down, one view.
func (g *grid2d[T]) panelView(k int) *matrix.Of[T] {
	return g.colView(k, g.rowsFrom(k))
}

// panelRows is how many rows of panel k process row pp holds.
func (g *grid2d[T]) panelRows(pp, k int) int {
	loc := numroc(g.n, g.nb, pp, g.P)
	return loc - localFrom(k, g.nb, pp, g.P, loc)
}

// interleave copies between the stage-k panel (its rows from global block
// row k down) and seg, process row pp's rows of it back to back: into the
// panel when toPanel, out of it otherwise.
func (g *grid2d[T]) interleave(panel, seg *matrix.Of[T], pp, k int, toPanel bool) {
	off := 0
	for i := k + (pp-k%g.P+g.P)%g.P; i < g.nBlocks; i += g.P {
		r, _ := g.blockDims(i, k)
		for y := 0; y < r; y++ {
			dst, src := panel.Row((i-k)*g.nb+y), seg.Row(off+y)
			if !toPanel {
				dst, src = src, dst
			}
			copy(dst, src)
		}
		off += r
	}
}

// --- panel factorization and its broadcast -----------------------------

// postPanel factors panel k and posts its broadcast. Only the panel
// column acts: factorPanelCore leaves every rank of it with its factored
// rows and the pivots, and the rank posts both — its rows of the panel,
// one view, and the pivots; the pivots alone from a rank holding no rows
// of the panel — to its binomial-tree children along the process row (one
// message per tree edge). The stage calls it at the start of stage k, or
// under look-ahead from stage k−1 once column k is updated; either way
// stage k's recvL collects the result.
func (g *grid2d[T]) postPanel(k int) error {
	_, rootQ := g.owner(k, k)
	if g.q != rootQ {
		return nil
	}
	piv, err := g.factorPanelCore(k)
	if err != nil {
		return err
	}
	g.panelPiv = piv
	buf := flatten(g.panelView(k))
	_, children := cluster.BcastTree(g.Q, rootQ, g.q)
	for _, cq := range children {
		if err := g.send(g.rank(g.p, cq), tag2dLBase+k, buf, piv); err != nil {
			return err
		}
	}
	return nil
}

// factorPanelCore gathers panel k on the diagonal owner in one message
// per source rank, factors it, and scatters the factored segments back
// in one message per destination rank, the pivots in its int payload.
// The scatter reaches every other process row of the panel column, one
// holding no rows of the panel included (it gets the pivots alone), so
// every panel-column rank returns the pivots.
func (g *grid2d[T]) factorPanelCore(k int) ([]int, error) {
	rootP, rootQ := g.owner(k, k)
	root := g.rank(rootP, rootQ)
	mine := g.panelView(k)
	tag := tag2dGatherBase + k

	if g.me() != root {
		if mine.Rows > 0 {
			if err := g.send(root, tag, flatten(mine), nil); err != nil {
				return nil, err
			}
		}
		f, piv, err := g.recv(root, tag)
		if err != nil {
			return nil, err
		}
		seg, err := unflatten(f, mine.Rows, mine.Cols)
		if err != nil {
			return nil, fmt.Errorf("hpl: stage %d factored panel: %w", k, err)
		}
		mine.CopyFrom(seg)
		return piv, nil
	}

	// Root: assemble the panel from its own rows plus one message per
	// contributing process row, factor, scatter back.
	_, w := g.blockDims(k, k)
	panel := matrix.New[T](g.n-k*g.nb, w)
	for pp := 0; pp < g.P; pp++ {
		seg := mine
		if pp != g.p {
			rows := g.panelRows(pp, k)
			if rows == 0 {
				continue
			}
			f, _, err := g.recv(g.rank(pp, rootQ), tag)
			if err != nil {
				return nil, err
			}
			if seg, err = unflatten(f, rows, w); err != nil {
				return nil, fmt.Errorf("hpl: stage %d gathered panel: %w", k, err)
			}
		}
		g.interleave(panel, seg, pp, k, true)
	}
	piv := make([]int, w)
	if err := blas.Getf2(panel, piv); err != nil && g.firstError == nil {
		g.firstError = blas.OffsetSingular(err, k*g.nb)
	}
	for pp := 0; pp < g.P; pp++ {
		if pp == g.p {
			g.interleave(panel, mine, pp, k, false)
			continue
		}
		seg := matrix.New[T](g.panelRows(pp, k), w)
		g.interleave(panel, seg, pp, k, false)
		if err := g.send(g.rank(pp, rootQ), tag, seg.Data, piv); err != nil {
			return nil, err
		}
	}
	return piv, nil
}

// --- batched tree L broadcast -----------------------------------------

// recvL makes stage k's pivots and L panel available on every rank and
// returns the pivots: panel-column ranks use their own rows and pivots,
// posted by postPanel; everyone else receives both payloads from its tree
// parent and relays them onward bitwise. The pivots are folded into the
// global pivot vector here. The rank's L21 is then one view — its owned
// block rows below k are a suffix of its rows — packed here once for the
// whole stage. Queued updates of an asynchronous pipeline may read the
// panel column's L21 in place: the next stage swaps rows of that column
// only after draining them. They read the previous stage's packed L21
// too, which stage therefore releases only after that drain.
func (g *grid2d[T]) recvL(k int) ([]int, error) {
	rootP, rootQ := g.owner(k, k)
	g.stageL11, g.stageL21, g.packedL = nil, nil, nil
	_, w := g.blockDims(k, k)
	var l *matrix.Of[T]
	piv := g.panelPiv
	if g.q == rootQ {
		l = g.panelView(k)
	} else {
		parent, children := cluster.BcastTree(g.Q, rootQ, g.q)
		f, ints, err := g.recv(g.rank(g.p, parent), tag2dLBase+k)
		if err != nil {
			return nil, err
		}
		if l, err = unflatten(f, g.mloc-g.rowsFrom(k), w); err != nil {
			return nil, fmt.Errorf("hpl: stage %d L: %w", k, err)
		}
		for _, cq := range children {
			if err := g.send(g.rank(g.p, cq), tag2dLBase+k, f, ints); err != nil {
				return nil, err
			}
		}
		piv = ints
	}
	if len(piv) != w {
		return nil, fmt.Errorf("hpl: stage %d pivot payload has %d entries, want %d", k, len(piv), w)
	}
	g.recordPivots(k, piv)
	if l.Rows == 0 {
		return piv, nil
	}
	top := 0
	if g.p == rootP {
		g.stageL11 = l.View(0, 0, w, w)
		top = w
	}
	g.stageL21 = l.View(top, 0, l.Rows-top, w)
	if g.stageL21.Rows > 0 {
		g.packedL = blas.PrepackA(g.stageL21, -1)
		if h := testHookPackedL; h != nil {
			h(g.me(), +1)
		}
	}
	return piv, nil
}

// testHookPackedL, when non-nil, observes the life of every rank's
// per-stage packed L21: delta +1 when recvL packs it, −1 when stage
// releases it. Set only by tests (before a solve starts).
var testHookPackedL func(rank, delta int)

// --- tree U broadcast and per-column updates ---------------------------

// solveUColumn computes U12(k,j) by DTRSM on the pivot process row and
// tree-broadcasts it down the process column (relays forward the raw
// payload, so every copy is bitwise the root's). It returns this rank's
// copy. j is a data column or, on the FT grid, checksum column nBlocks or
// nBlocks+Q, so the tag strides k by nBlocks+Q+1.
func (g *grid2d[T]) solveUColumn(k, j int) (*matrix.Of[T], error) {
	rootP, _ := g.owner(k, k)
	var u *matrix.Of[T]
	if g.p == rootP {
		u = g.block(k, j)
		blas.Trsm(blas.Left, blas.Lower, false, blas.Unit, 1, g.stageL11, u)
	}
	if g.P > 1 {
		tag := tag2dUBase + k*(g.nBlocks+g.Q+1) + j
		var payload []T
		parent, children := cluster.BcastTree(g.P, rootP, g.p)
		if g.p == rootP {
			payload = flatten(u)
		} else {
			r, c := g.blockDims(k, j)
			f, _, err := g.recv(g.rank(parent, g.q), tag)
			if err != nil {
				return nil, err
			}
			if u, err = unflatten(f, r, c); err != nil {
				return nil, err
			}
			payload = f
		}
		for _, cp := range children {
			if err := g.send(g.rank(cp, g.q), tag, payload, nil); err != nil {
				return nil, err
			}
		}
	}
	return u, nil
}

// updateJob builds column j's stage-k trailing update, C −= L21·U12(k, j)
// over every owned row below block row k: one GEMM on one view, whose
// packed path reuses the stage's packed L21 and packs U here, on the
// protocol goroutine. ok is false when this rank owns no such rows.
// By the k-only contract of the packed GEMM the rows and columns of one
// call round exactly as the sequential algorithm's, however the update
// is tiled.
func (g *grid2d[T]) updateJob(k, j int, u *matrix.Of[T]) (job pipeJob[T], ok bool) {
	from := g.rowsFrom(k + 1)
	if from == g.mloc {
		return job, false
	}
	job = pipeJob[T]{
		ctx:     g.ctxOrBG(),
		c:       g.colView(j, from),
		pl:      g.packedL,
		offload: g.offloadUpdates,
		rec:     g.rec,
		iter:    k,
	}
	if u != nil {
		job.pu = blas.PrepackB(u)
	}
	return job, true
}

// updateColumn applies the stage-k trailing update to column j
// synchronously, on the protocol goroutine.
func (g *grid2d[T]) updateColumn(k, j int, u *matrix.Of[T]) error {
	job, ok := g.updateJob(k, j, u)
	if !ok {
		return nil
	}
	defer job.pu.Release()
	if err := job.run(); err != nil {
		return fmt.Errorf("hpl: rank (%d,%d) stage %d column %d: %w", g.p, g.q, k, j, err)
	}
	return nil
}

// --- coalesced long swaps ---------------------------------------------

// swapPair maps one destination slot (a global row index) to the
// original global row that ends up there after the stage's full pivot
// swap sequence.
type swapPair struct{ slot, src int }

// swapPerm reduces the stage's sequential pivot swaps to their net
// permutation: applying the transpositions (r1 r2) in pivot order, slot
// s ends up holding original row perm(s). Later pivots may touch rows
// moved by earlier ones, so the sequence is simulated exactly; only
// moved slots are returned, ascending.
func swapPerm(k, nb int, piv []int) []swapPair {
	cur := map[int]int{} // slot -> original row currently parked there
	at := func(s int) int {
		if r, ok := cur[s]; ok {
			return r
		}
		return s
	}
	for j, pv := range piv {
		r1, r2 := k*nb+j, k*nb+pv
		if r1 == r2 {
			continue
		}
		cur[r1], cur[r2] = at(r2), at(r1)
	}
	pairs := make([]swapPair, 0, len(cur))
	for slot, src := range cur {
		if slot != src {
			pairs = append(pairs, swapPair{slot: slot, src: src})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].slot < pairs[b].slot })
	return pairs
}

// stageSwap is one stage's coalesced row exchange: every row this rank
// must ship leaves in a single packed message per peer process row,
// packed in column-consumption order, and the received payloads are
// consumed sequentially as the column loop applies each column's
// permutation. One exchange per peer pair per stage — not per pivot
// (the synchronous schedule) or per column. The routing (which pairs
// this rank sends, receives, or cycles locally) is resolved once per
// stage; the per-column work is pure copying between local rows.
type stageSwap[T matrix.Float] struct {
	recvIdx  [][]int     // peer process row -> pair indices received from it
	localIdx []int       // pair indices cycling within this rank
	routes   []swapRoute // per pair: local rows of src and slot
	stash    [][]T       // peer process row -> packed rows received
	off      []int       // peer process row -> consumed payload offset
	snap     []T         // per-column snapshot scratch for local cycles
}

// swapRoute caches a pair's local rows (on their owners) so the
// per-column loops do no division.
type swapRoute struct{ src, slot int }

// rowProc is the process row owning global matrix row `global`.
func (g *grid2d[T]) rowProc(global int) int { return (global / g.nb) % g.P }

// swapExchange resolves the stage's swap routing and posts/collects its
// packed messages. Sends are packed straight from the (not yet
// modified) local rows in the shared column order, so both ends of every
// link agree on the layout without any per-row headers.
func (g *grid2d[T]) swapExchange(k int, pairs []swapPair, order []int) (*stageSwap[T], error) {
	s := &stageSwap[T]{stash: make([][]T, g.P), off: make([]int, g.P)}
	if len(pairs) == 0 {
		return s, nil
	}
	s.routes = make([]swapRoute, len(pairs))
	sendIdx := make([][]int, g.P)
	s.recvIdx = make([][]int, g.P)
	for x, pr := range pairs {
		s.routes[x] = swapRoute{g.localRow(pr.src), g.localRow(pr.slot)}
		sp, dp := g.rowProc(pr.src), g.rowProc(pr.slot)
		switch {
		case sp == g.p && dp == g.p:
			s.localIdx = append(s.localIdx, x)
		case sp == g.p:
			sendIdx[dp] = append(sendIdx[dp], x)
		case dp == g.p:
			s.recvIdx[sp] = append(s.recvIdx[sp], x)
		}
	}
	tag := tag2dSwapBase + k
	for pd := 0; pd < g.P; pd++ {
		if len(sendIdx[pd]) == 0 {
			continue
		}
		buf := g.scratch[:0]
		for _, jb := range order {
			_, w := g.blockDims(0, jb)
			for _, x := range sendIdx[pd] {
				buf = append(buf, g.seg(s.routes[x].src, jb, w)...)
			}
		}
		g.scratch = buf[:0]
		if err := g.send(g.rank(pd, g.q), tag, buf, nil); err != nil {
			return nil, err
		}
	}
	wTotal := 0
	for _, jb := range order {
		_, w := g.blockDims(0, jb)
		wTotal += w
	}
	for ps := 0; ps < g.P; ps++ {
		if len(s.recvIdx[ps]) == 0 {
			continue
		}
		f, _, err := g.recv(g.rank(ps, g.q), tag)
		if err != nil {
			return nil, err
		}
		if want := len(s.recvIdx[ps]) * wTotal; len(f) != want {
			return nil, fmt.Errorf("hpl: stage %d packed swap payload %d != %d", k, len(f), want)
		}
		s.stash[ps] = f
	}
	return s, nil
}

// apply replays the stage permutation on block column jb: remote rows
// come off the stashed payloads in pack order, local cycles go through
// a snapshot so the result equals the sequential transposition sequence
// exactly. (Every slot is written once, so remote and local writes
// commute; only the snapshot-before-write order matters.)
func (s *stageSwap[T]) apply(g *grid2d[T], jb int) {
	if len(s.routes) == 0 {
		return
	}
	_, w := g.blockDims(0, jb)
	if len(s.localIdx) > 0 {
		if cap(s.snap) < len(s.localIdx)*w {
			s.snap = make([]T, len(s.localIdx)*w)
		}
		for y, x := range s.localIdx {
			copy(s.snap[y*w:(y+1)*w], g.seg(s.routes[x].src, jb, w))
		}
		for y, x := range s.localIdx {
			copy(g.seg(s.routes[x].slot, jb, w), s.snap[y*w:(y+1)*w])
		}
	}
	for ps, idx := range s.recvIdx {
		if len(idx) == 0 {
			continue
		}
		payload, off := s.stash[ps], s.off[ps]
		for _, x := range idx {
			copy(g.seg(s.routes[x].slot, jb, w), payload[off:off+w])
			off += w
		}
		s.off[ps] = off
	}
}

// --- trailing-update pipeline -----------------------------------------

// pipeJob is one block column's trailing update, C −= L21·U, run by the
// pipeline or inline. It carries its own operand references so the grid
// can move on to the next stage while the job is still queued.
type pipeJob[T matrix.Float] struct {
	ctx     context.Context
	c       *matrix.Of[T]       // the column's owned rows below the panel
	pl      *blas.PrepackedA[T] // the stage's packed −L21
	pu      *blas.PrepackedB[T] // the column's packed U12, private to the job
	offload bool                // run the packed update on the offload engine
	rec     *trace.Recorder
	lane    int
	iter    int
	signal  chan struct{}
}

// run applies the job's update: one prepacked GEMM over the whole column
// with every pool worker — native's update of one panel
// (lu.updatePanel) — or the same packed operands on the offload engine,
// one engine run per K-block. The engine makes the prepacked GEMM's
// micro-kernel calls, so both round as the sequential algorithm does.
func (job *pipeJob[T]) run() error {
	if job.pl == nil || job.pu == nil {
		return fmt.Errorf("hpl: trailing update missing operands (stage %d)", job.iter)
	}
	if !job.offload {
		blas.GemmPrepacked(job.pl, job.pu, job.c, pool.Size())
		return nil
	}
	bs := job.pu.Blocks()
	for i, a := range job.pl.Blocks() {
		// Tiles sized for a card+host split of one nb×nb block (a
		// K-block's depth is the panel's nb up to packKC), so a column
		// splits into the tiles its blocks did.
		_, err := offload.ComputePacked(job.ctx, &a, &bs[i], job.c, offload.RealConfig{
			Mt: a.K/2 + 1, Nt: job.c.Cols/2 + 1, CardWorkers: 1, HostWorkers: 1,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// pipeline runs trailing-update GEMM jobs on a single worker goroutine,
// FIFO, with per-column completion signals. The protocol goroutine
// enqueues column j's update and only waits for it when a later stage
// needs to touch column j again. An inline pipeline runs each job at
// enqueue instead — same FIFO order, same arithmetic, none of the
// channel handoffs or scheduler switches.
type pipeline[T matrix.Float] struct {
	jobs   chan pipeJob[T]
	done   chan struct{}
	inline bool
	pend   map[int]chan struct{} // column -> completion (protocol side only)
	mu     sync.Mutex
	err    error
}

func newPipeline[T matrix.Float](buffer int, inline bool) *pipeline[T] {
	p := &pipeline[T]{pend: map[int]chan struct{}{}, inline: inline}
	if inline {
		return p
	}
	p.jobs = make(chan pipeJob[T], buffer)
	p.done = make(chan struct{})
	go p.worker()
	return p
}

func (p *pipeline[T]) worker() {
	defer close(p.done)
	for job := range p.jobs {
		if p.getErr() == nil {
			p.runJob(job)
		}
		close(job.signal)
	}
}

// runJob executes one column's update; panics (including pool.Do's
// re-raised *PanicError) are contained here and surfaced as the
// pipeline's first error instead of escaping the worker goroutine.
func (p *pipeline[T]) runJob(job pipeJob[T]) {
	defer func() {
		if r := recover(); r != nil {
			p.setErr(fmt.Errorf("hpl: trailing-update worker panicked: %v", r))
		}
	}()
	// The packed U is private to this job; the packed L belongs to the
	// stage and outlives it.
	defer job.pu.Release()
	ts := job.rec.Start()
	if err := job.run(); err != nil {
		p.setErr(err)
		return
	}
	job.rec.Since(job.lane, "GEMM", job.iter, ts)
}

func (p *pipeline[T]) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *pipeline[T]) getErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// enqueue registers column col's completion signal and hands the job to
// the worker (or runs it on the spot in inline mode). Protocol goroutine
// only.
func (p *pipeline[T]) enqueue(col int, job pipeJob[T]) {
	if p.inline {
		if p.getErr() == nil {
			p.runJob(job)
		}
		return
	}
	job.signal = make(chan struct{})
	p.pend[col] = job.signal
	p.jobs <- job
}

// waitCol blocks until column j's queued update (if any) has finished.
func (p *pipeline[T]) waitCol(j int) error {
	if ch, ok := p.pend[j]; ok {
		delete(p.pend, j)
		<-ch
	}
	return p.getErr()
}

// drain waits for every queued update.
func (p *pipeline[T]) drain() error {
	for j, ch := range p.pend {
		<-ch
		delete(p.pend, j)
	}
	return p.getErr()
}

// stop closes the queue and joins the worker. Call exactly once, after
// the last enqueue.
func (p *pipeline[T]) stop() {
	if p.inline {
		return
	}
	close(p.jobs)
	<-p.done
}

// deferred reports whether queued jobs may still be pending after
// enqueue returns — i.e. whether operands handed to the pipeline must
// stay stable across later protocol steps.
func (p *pipeline[T]) deferred() bool { return !p.inline }

// startPipe builds the grid's trailing-update pipeline. It is
// asynchronous only under the pipelined schedule with a second compute
// lane to overlap on; none and basic, and any schedule on a one-core
// pool, run each column's GEMM inline on the protocol goroutine.
func (g *grid2d[T]) startPipe() {
	g.pipe = newPipeline[T](g.nBlocks+1, g.mode != LookaheadPipelined || pool.Size() <= 1)
}

func (g *grid2d[T]) stopPipe() { g.pipe.stop() }

func (g *grid2d[T]) drainPipe() error { return g.pipe.drain() }

// enqueueUpdate hands column j's stage-k trailing update to the
// pipeline. An inline job records its GEMM span on the rank's protocol
// lane, where it serializes into the stage.
func (g *grid2d[T]) enqueueUpdate(k, j int, u *matrix.Of[T]) {
	job, ok := g.updateJob(k, j, u)
	if !ok {
		return
	}
	job.lane = g.me()
	if g.pipe.deferred() {
		job.lane += g.P * g.Q
	}
	g.pipe.enqueue(j, job)
}

// --- the stage loop ---------------------------------------------------

// openStage makes panel k's pivots and L panel available: it factors and
// posts the panel unless the previous stage did so under look-ahead, then
// collects them. g.factoredAhead is a pure function of the schedule, so
// every rank takes the same branch.
func (g *grid2d[T]) openStage(k int) ([]int, error) {
	if !g.factoredAhead {
		ts := g.rec.Start()
		if err := g.postPanel(k); err != nil {
			return nil, err
		}
		g.tspan("panel", k, ts)
	}
	ts := g.rec.Start()
	piv, err := g.recvL(k)
	if err != nil {
		return nil, err
	}
	g.tspan("Lbcast", k, ts)
	return piv, nil
}

// columnOrder returns the owned block columns of stage k's swap/update
// loop in schedule order: the look-ahead column k+1 first (when owned
// and eligible), then every other owned column ascending, skipping the
// panel column itself, then the FT grid's checksum columns. Columns left
// of the panel still appear — their rows are swapped — but receive no U
// or GEMM work.
func (g *grid2d[T]) columnOrder(k int, ahead bool) []int {
	var order []int
	if ahead && (k+1)%g.Q == g.q {
		order = append(order, k+1)
	}
	for j := 0; j < g.nBlocks; j++ {
		if j%g.Q != g.q || j == k || (ahead && j == k+1) {
			continue
		}
		order = append(order, j)
	}
	if g.holdsChecksums() {
		order = append(order, g.nBlocks, g.nBlocks+g.Q)
	}
	return order
}

// stage runs iteration k of the outer factorization loop — the one
// stage of every schedule. Per owned block column, the coalesced row
// swap, DTRSM and tree U broadcast run on the protocol goroutine and the
// column's GEMM goes to the pipeline (overlapping the next column under
// the async lane). With look-ahead the column k+1 is handled first and
// synchronously, so panel k+1 factors and its broadcasts post before the
// bulk of trailing update k. The FT grid's checksum columns are two more
// owned columns of the loop: the same swap, DTRSM, U broadcast and GEMM
// keep them the checksums of the trailing matrix.
//
// Every link is FIFO and every receive names its tag, so a link must
// carry its messages in the order its receiver consumes them. Look-ahead
// keeps that order. Panel k+1's gather and scatter share process-column
// links with stage k's swap and U messages, but every panel-column rank
// reaches postPanel(k+1) at the same point of the same column order.
// Ranks of one process row exchange only L messages during the
// factorization, sent and received in stage order, so an early L can
// overtake nothing; FT verification uses those links only at super-step
// boundaries, where look-ahead is off.
func (g *grid2d[T]) stage(k int) error {
	prevL := g.packedL
	piv, err := g.openStage(k)
	if err != nil {
		return err
	}

	pairs := swapPerm(k, g.nb, piv)
	ahead := g.aheadOK(k + 1)
	order := g.columnOrder(k, ahead)

	// The packed exchange reads rows the queued trailing updates write;
	// freeze them before packing.
	if err := g.pipe.drain(); err != nil {
		return err
	}
	// No queued update of stage k−1 is left to read its packed L21.
	if prevL != nil {
		prevL.Release()
		if h := testHookPackedL; h != nil {
			h(g.me(), -1)
		}
	}
	ts := g.rec.Start()
	sw, err := g.swapExchange(k, pairs, order)
	if err != nil {
		return err
	}
	g.tspan("swap", k, ts)

	for _, j := range order {
		if err := g.pipe.waitCol(j); err != nil {
			return err
		}
		sw.apply(g, j)
		if j <= k {
			continue
		}
		ts = g.rec.Start()
		u, err := g.solveUColumn(k, j)
		if err != nil {
			return err
		}
		g.tspan("Ubcast", k, ts)
		if ahead && j == k+1 {
			ts = g.rec.Start()
			if err := g.updateColumn(k, j, u); err != nil {
				return err
			}
			g.tspan("GEMM", k, ts)
			ts = g.rec.Start()
			if err := g.postPanel(k + 1); err != nil {
				return err
			}
			g.tspan("panel", k+1, ts)
		} else {
			g.enqueueUpdate(k, j, u)
		}
	}
	g.factoredAhead = ahead
	return nil
}
