package hpl

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/fault"
	"phihpl/internal/matrix"
	"phihpl/internal/trace"
)

// ErrChecksum is returned when ABFT verification finds corruption it
// cannot localize and repair; the driver rolls back to the last
// checkpoint when one exists.
var ErrChecksum = errors.New("hpl: ABFT checksum verification failed beyond recovery")

// FTConfig configures the fault-tolerant 2D solver. The stage schedule is
// the Grid's Lookahead (all modes are bitwise identical; look-ahead is
// suppressed across super-step boundaries, so verification and
// checkpoints always see an untouched next panel), and Solve's recorder
// receives one wall-clock span per rank per super-step phase (worker =
// rank, name = "stage" / "verify" / "checkpoint", iter = the outer stage)
// beside the grid's protocol spans.
type FTConfig struct {
	// Plan is the deterministic fault plan to inject (nil or empty: a
	// clean run on the plain transport, bitwise identical to the plain
	// grid).
	Plan *fault.Plan
	// Timeout bounds every fabric operation (default 2s).
	Timeout time.Duration
	// CheckpointEvery is the super-step period in stages: after every
	// such stage the grid verifies the ABFT checksums and deposits a
	// rollback checkpoint (default 4).
	CheckpointEvery int
	// MaxRestarts caps world respawns after unrecoverable faults
	// (default 3; negative disables restarts).
	MaxRestarts int
	// Watchdog arms the cluster progress monitor (0: off).
	Watchdog time.Duration
	// Logf receives watchdog dumps.
	Logf func(format string, args ...any)
}

// FTStats counts the recovery work a fault-tolerant solve performed.
type FTStats struct {
	// Restarts is the number of world respawns (rollbacks to the last
	// checkpoint, or to the start when none existed yet).
	Restarts int
	// Resends and ChecksumRejects aggregate the transport's recovery
	// counters across all attempts.
	Resends         uint64
	ChecksumRejects uint64
	// Faults are the injector's counters.
	Faults fault.Stats
	// Reconstructions counts data blocks repaired from the ABFT
	// checksum columns; ChecksumRebuilds counts checksum blocks rebuilt
	// from clean data.
	Reconstructions  int
	ChecksumRebuilds int
	// Checkpoints counts promoted (complete) super-step checkpoints.
	Checkpoints int
}

// StageProfile is the wall-clock time of one outer iteration.
type StageProfile struct {
	Stage   int
	Seconds float64
}

// FaultError is the structured failure report of an unrecoverable
// fault-tolerant solve: the iteration the final attempt failed at, the
// restart count, the per-iteration profile of the final attempt, and the
// underlying fabric error.
type FaultError struct {
	// Iter is the earliest stage at which a rank of the final attempt
	// failed by its own fault (a crash, a timeout, corruption past
	// repair), not by a peer's failure reaching it: the same on every
	// interleaving, where the stages peers ran ahead to are not. It is −1
	// when only a rank panic (a cluster.RankPanicError in Err) ended it.
	Iter     int
	Restarts int
	Profile  []StageProfile
	Err      error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("hpl: unrecoverable fault at iteration %d after %d restart(s): %v",
		e.Iter, e.Restarts, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// FT protocol tags (disjoint from the plain 2D bases).
const (
	tagFTCU      = 7 << 20  // + k: checksum-U broadcast down column cq
	tagFTSum     = 8 << 20  // + k*nBlocks + i: partial checksum sums
	tagFTVerdict = 9 << 20  // + k*nBlocks + i: per-row verdicts
	tagFTSwap    = 10 << 20 // + global row index: checksum row exchange
	tagFTWorst   = 11 << 20 // + k: global verdict reduce/bcast
	tagFTFix     = 12 << 20 // + k*nBlocks + i: repair re-reduction round
)

// ftTol is the absolute threshold separating ABFT checksum drift
// (round-off, ~1e-13 for the test sizes) from injected corruption
// (scrubs add 1e6).
const ftTol = 1e-3

// verdict codes of the super-step verification.
const (
	ftClean   = iota
	ftFixed   // a data block was reconstructed from the checksums
	ftRebuilt // a checksum block was rebuilt from clean data
	ftLost    // corruption could not be localized
)

// solveFT is Solve's fault-tolerant path, the plain grid extended with
// the paper-era HPC resilience stack: Huang–Abraham weighted checksum
// columns carried through swap/TRSM/GEMM as an extra block column (so a
// corrupted block is localized by the weight ratio and reconstructed in
// place), plus super-step checkpointing with rollback and world respawn
// for crashes, stalls and timeouts. With an empty plan the solve runs on
// the clean transport and its results are bitwise identical to the plain
// grid's. On unrecoverable faults it returns a *FaultError — never
// garbage, never a hang. Cancellation is not a fault: once ctx is done the
// attempt unwinds at the next super-step boundary and the plain ctx.Err()
// is returned directly — no rollback, no respawn, no *FaultError wrapping
// — so callers can always distinguish "you asked me to stop" from "the
// machine failed".
func solveFT(ctx context.Context, gr Grid, rec *trace.Recorder) (DistResult, error) {
	n, nb, p, q, cfg := gr.N, gr.NB, gr.P, gr.Q, *gr.FT
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 4
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 3
	}
	nBlocks := (n + nb - 1) / nb

	var in *fault.Injector
	if cfg.Plan != nil && !cfg.Plan.Empty() {
		in = fault.NewInjector(cfg.Plan)
	}
	store := newFTStore(p * q)
	var stats FTStats
	var lastErr error
	var profile []StageProfile

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return DistResult{}, err
		}
		store.newAttempt()
		world := cluster.NewWorldOpts(p*q, cluster.Options{
			Buffer:   nBlocks*nBlocks + 16,
			Timeout:  cfg.Timeout,
			Injector: in,
			Watchdog: cfg.Watchdog,
			Logf:     cfg.Logf,
		})
		results := make([]DistResult, p*q)
		errs := make([]error, p*q)
		prof := make([]StageProfile, 0, nBlocks)

		runErr := world.Run(func(c *Comm) error {
			g2 := &grid2d[float64]{c: c, ctx: ctx, P: p, Q: q, n: n, nb: nb, nBlocks: nBlocks,
				mode: gr.Lookahead, rec: rec}
			g2.p, g2.q = c.Rank()/q, c.Rank()%q
			f := &ftGrid{
				grid2d: g2, in: in, store: store, cfg: cfg,
				cq: nBlocks % q, profile: &prof,
			}
			g2.hooks = f
			g2.aheadBlocked = func(next int) bool { return next%cfg.CheckpointEvery == 0 }
			return f.runFT(gr.Seed, results, errs)
		})
		ws := world.Stats()
		stats.Resends += ws.Resends
		stats.ChecksumRejects += ws.ChecksumRejects
		profile = prof

		if runErr == nil {
			stats.Faults = in.Stats()
			stats.Restarts = attempt
			stats.Reconstructions, stats.ChecksumRebuilds, stats.Checkpoints = store.counters()
			res := results[0]
			res.FT = &stats
			for _, e := range errs {
				if e != nil {
					return res, e
				}
			}
			return res, nil
		}
		lastErr = runErr
		if cerr := ctx.Err(); cerr != nil {
			// Cancellation, not a fault: don't burn a restart on it.
			return DistResult{}, cerr
		}
		if attempt >= cfg.MaxRestarts {
			return DistResult{}, &FaultError{
				Iter:     store.failedAt(),
				Restarts: attempt,
				Profile:  profile,
				Err:      lastErr,
			}
		}
		mFTRestarts.Load().Inc() // a rollback/respawn is about to happen
	}
}

// ftGrid is one process of the fault-tolerant solver: the plain 2D grid
// plus the two weighted checksum block columns C1(I) = Σ_J A(I,J)·S_J and
// C2(I) = Σ_J (J+1)·A(I,J)·S_J (S_J embeds ragged blocks into width nb),
// owned by process column cq as a virtual block column J = nBlocks.
type ftGrid struct {
	*grid2d[float64]
	in      *fault.Injector
	store   *ftStore
	cfg     FTConfig
	cq      int           // process column owning the checksum blocks
	chk1    *matrix.Dense // this rank's rows of C1, mloc × nb (checksum column only)
	chk2    *matrix.Dense // the same rows of C2
	cu1     *matrix.Dense // this stage's L11⁻¹·C(k), broadcast down cq
	cu2     *matrix.Dense
	profile *[]StageProfile
}

// The ABFT checksum maintenance rides on the stage's end hooks: the row
// swaps are mirrored on the virtual checksum column, the checksum-U solve
// uses the stage's L11, and the checksum GEMM its L21 (checksum blocks are
// disjoint from data blocks, so pipelined trailing updates may still be
// in flight).
func (f *ftGrid) afterSwaps(k int, piv []int) error { return f.swapChecksums(k, piv) }
func (f *ftGrid) afterL(k int) error                { return f.chkSolveAndBcast(k) }
func (f *ftGrid) afterUpdate(k int) error           { return f.updateChecksums(k) }

// testHookSuperStep, when non-nil, runs at every super-step boundary of
// every rank, before the stage's fault-injection point. Set only by
// tests, to order ranks.
var testHookSuperStep func(rank, k int)

func (f *ftGrid) runFT(seed uint64, results []DistResult, errs []error) (err error) {
	at := 0 // the stage this rank is in, for the failure record
	defer func() {
		if err != nil {
			f.store.noteFailure(at, err)
		}
	}()
	sys, full := f.scatter(seed)
	start := 0
	if snap, stage, ok := f.store.load(f.me()); ok {
		// Roll back: resume from the last promoted checkpoint.
		f.a = snap.a
		f.chk1, f.chk2 = snap.chk1, snap.chk2
		copy(f.globalPiv, snap.globalPiv)
		f.firstError = snap.firstError
		start, at = stage, stage
	} else {
		f.initChecksums(full)
	}
	// The timed phase opens here, as in run: generation, checksum seeding
	// and a rollback's restore stay outside it.
	if err := f.c.Barrier(); err != nil {
		return err
	}
	f.t0 = time.Now()
	f.startPipe()
	defer f.stopPipe()

	for k := start; k < f.nBlocks; k++ {
		// Super-step boundary: the FT loop's cancellation point.
		if err := f.ctxErr(); err != nil {
			return err
		}
		at = k
		if h := testHookSuperStep; h != nil {
			h(f.me(), k)
		}
		t0 := time.Now()
		ts := f.rec.Start()
		if err := f.c.Progress(k); err != nil {
			return err
		}
		if err := f.stage(k); err != nil {
			return err
		}
		f.rec.Since(f.me(), "stage", k, ts)
		if f.in.ScrubAt(f.me(), k) {
			// Silent data corruption strikes a trailing block after the
			// stage's updates; the next super-step verifies it while the
			// block is still protected (checksums only cover the trailing
			// submatrix — corruption consumed into a factored panel before
			// a super-step is past forward recovery and rolls back). Any
			// pipelined updates still in flight finish first so the scrub
			// lands on settled data.
			if err := f.drainPipe(); err != nil {
				return err
			}
			f.scrubBlock(k)
		}
		if (k+1)%f.cfg.CheckpointEvery == 0 && k+1 < f.nBlocks {
			// Verification and checkpointing read the trailing blocks, so
			// the asynchronous update queue must be empty.
			if err := f.drainPipe(); err != nil {
				return err
			}
			ts = f.rec.Start()
			if err := f.verify(k); err != nil {
				return err
			}
			f.rec.Since(f.me(), "verify", k, ts)
			ts = f.rec.Start()
			f.checkpoint(k)
			f.rec.Since(f.me(), "checkpoint", k, ts)
			mFTCheckpoints.Load().Inc()
		}
		if f.me() == 0 {
			*f.profile = append(*f.profile, StageProfile{Stage: k, Seconds: time.Since(t0).Seconds()})
		}
	}
	at = f.nBlocks
	return f.gatherAndSolve(sys, results, errs)
}

// initChecksums builds C1 and C2 from the (deterministically generated)
// initial matrix — no communication needed.
func (f *ftGrid) initChecksums(full *matrix.Dense) {
	if f.q != f.cq {
		return
	}
	f.chk1 = matrix.NewDense(f.mloc, f.nb)
	f.chk2 = matrix.NewDense(f.mloc, f.nb)
	for i := f.p; i < f.nBlocks; i += f.P {
		r, _ := f.blockDims(i, 0)
		// The checksum seeds span the whole block row, most of which this
		// rank does not own; regenerate the band by stream jump unless a
		// test hook materialized the full matrix here.
		band := full
		if band == nil {
			band = matrix.RandomSubmatrix(f.n, f.seed, i*f.nb, 0, r, f.n)
		} else {
			band = full.View(i*f.nb, 0, r, f.n)
		}
		c1, c2 := f.chkRows(f.chk1, i), f.chkRows(f.chk2, i)
		for j := 0; j < f.nBlocks; j++ {
			_, w := f.blockDims(i, j)
			blk := band.View(0, j*f.nb, r, w)
			wgt := float64(j + 1)
			for rr := 0; rr < r; rr++ {
				src := blk.Row(rr)
				d1, d2 := c1.Row(rr), c2.Row(rr)
				for cc := 0; cc < w; cc++ {
					d1[cc] += src[cc]
					d2[cc] += wgt * src[cc]
				}
			}
		}
	}
}

// chkRows is block row i's rows of a checksum column, as a view.
func (f *ftGrid) chkRows(chk *matrix.Dense, i int) *matrix.Dense {
	r, _ := f.blockDims(i, 0)
	return chk.View(f.lrow(i), 0, r, f.nb)
}

// swapChecksums applies the stage's pivot row swaps, in pivot order, to
// the checksum columns — the virtual column's share of the stage's swaps.
func (f *ftGrid) swapChecksums(k int, piv []int) error {
	if f.q != f.cq {
		return nil
	}
	for j, pv := range piv {
		r1 := k*f.nb + j
		r2 := k*f.nb + pv
		if r1 == r2 {
			continue
		}
		p1, p2 := f.rowProc(r1), f.rowProc(r2)
		l1, l2 := f.localRow(r1), f.localRow(r2)
		tag := tagFTSwap + r1
		switch {
		case p1 == f.p && p2 == f.p:
			for _, chk := range []*matrix.Dense{f.chk1, f.chk2} {
				row1, row2 := chk.Row(l1), chk.Row(l2)
				for x := range row1 {
					row1[x], row2[x] = row2[x], row1[x]
				}
			}
		case p1 == f.p:
			if err := f.swapChkRows(l1, f.rank(p2, f.q), tag); err != nil {
				return err
			}
		case p2 == f.p:
			if err := f.swapChkRows(l2, f.rank(p1, f.q), tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// swapChkRows exchanges local row lr of both checksum columns with the
// peer rank.
func (f *ftGrid) swapChkRows(lr, peer, tag int) error {
	row1, row2 := f.chk1.Row(lr), f.chk2.Row(lr)
	payload := append(append([]float64(nil), row1...), row2...)
	if err := f.c.Send(peer, tag, payload, nil); err != nil {
		return err
	}
	msg, err := f.c.Recv(peer, tag)
	if err != nil {
		return err
	}
	if len(msg.F) != 2*f.nb {
		return fmt.Errorf("hpl: checksum swap payload %d != %d", len(msg.F), 2*f.nb)
	}
	copy(row1, msg.F[:f.nb])
	copy(row2, msg.F[f.nb:])
	return nil
}

// chkSolveAndBcast performs the checksum columns' share of the U solve:
// CU = L11⁻¹·C(k) on the pivot row's cq rank, broadcast down column cq.
func (f *ftGrid) chkSolveAndBcast(k int) error {
	f.cu1, f.cu2 = nil, nil
	if f.q != f.cq || k+1 >= f.nBlocks {
		return nil
	}
	rootP, _ := f.owner(k, k)
	rk, _ := f.blockDims(k, 0)
	if f.p == rootP {
		f.cu1, f.cu2 = f.chkRows(f.chk1, k), f.chkRows(f.chk2, k)
		blas.Dtrsm(blas.Left, blas.Lower, false, blas.Unit, 1, f.stageL11, f.cu1)
		blas.Dtrsm(blas.Left, blas.Lower, false, blas.Unit, 1, f.stageL11, f.cu2)
		payload := slices.Concat(flatten(f.cu1), flatten(f.cu2))
		for pp := 0; pp < f.P; pp++ {
			if pp != f.p {
				if err := f.c.Send(f.rank(pp, f.cq), tagFTCU+k, payload, nil); err != nil {
					return err
				}
			}
		}
		return nil
	}
	msg, err := f.c.Recv(f.rank(rootP, f.cq), tagFTCU+k)
	if err != nil {
		return err
	}
	half := rk * f.nb
	if len(msg.F) != 2*half {
		return fmt.Errorf("hpl: checksum-U payload %d != %d", len(msg.F), 2*half)
	}
	if f.cu1, err = unflatten(msg.F[:half], rk, f.nb); err != nil {
		return err
	}
	f.cu2, err = unflatten(msg.F[half:], rk, f.nb)
	return err
}

// updateChecksums applies the trailing update to the checksum columns:
// C -= L21·CU over every owned row below block row k, the same update
// every data column receives. The factored column's contribution cancels
// exactly, so the invariant C(I) = Σ_{J≥k+1} A(I,J)·S_J holds at the next
// super-step.
func (f *ftGrid) updateChecksums(k int) error {
	from := f.rowsFrom(k + 1)
	if f.q != f.cq || from == f.mloc {
		return nil
	}
	l := f.stageL21
	if l == nil {
		return fmt.Errorf("hpl: rank (%d,%d) missing stage-%d L21 for the checksum update", f.p, f.q, k)
	}
	blas.RankKUpdate(l, f.cu1, f.chk1.View(from, 0, f.mloc-from, f.nb), 1)
	blas.RankKUpdate(l, f.cu2, f.chk2.View(from, 0, f.mloc-from, f.nb), 1)
	return nil
}

// scrubBlock corrupts one owned trailing data block in place (the "silent
// data corruption" fault): the block with the largest column index stays
// in the trailing submatrix longest, giving verification time to catch it.
// The owned blocks are every owned block row crossed with every owned
// block column, so the pick — largest column, then largest row — is the
// last owned of each.
func (f *ftGrid) scrubBlock(k int) {
	bi, bj := lastOwned(f.p, f.P, f.nBlocks), lastOwned(f.q, f.Q, f.nBlocks)
	if bi <= k || bj <= k {
		return // no trailing block owned: nothing to scrub
	}
	blk := f.block(bi, bj)
	blk.Set(0, 0, blk.At(0, 0)+1e6)
}

// lastOwned is the largest of nBlocks block indices dealt round-robin
// over nprocs processes that process iproc owns (-1: none).
func lastOwned(iproc, nprocs, nBlocks int) int {
	if iproc >= nBlocks {
		return -1
	}
	return iproc + (nBlocks-1-iproc)/nprocs*nprocs
}
