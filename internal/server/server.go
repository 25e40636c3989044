package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"phihpl"
	"phihpl/internal/journal"
	"phihpl/internal/metrics"
	"phihpl/internal/pool"
	"phihpl/internal/trace"
)

// Config sizes the server. Zero fields take the documented defaults.
type Config struct {
	QueueDepth  int // total queued jobs across tenants (default 64)
	Concurrency int // scheduler workers = max concurrently running jobs (default 2)

	TenantCap     int            // max running jobs per tenant (default max(1, Concurrency/2))
	TenantWeights map[string]int // WRR dequeue weights (default 1 per tenant)

	MaxN      int   // largest accepted problem size (default 4096)
	MaxGrid   int   // largest accepted P*Q (default 16)
	MemBudget int64 // running-jobs footprint budget in bytes (default 4 GiB)

	DefaultTimeout time.Duration // per-job deadline when the spec has none (default 1m)
	MaxTimeout     time.Duration // hard ceiling on any job deadline (default 5m)
	DefaultRetries int           // transient-error retries when the spec has none (default 2)
	MaxRetries     int           // largest accepted per-job retry budget (default 5)
	RetryBase      time.Duration // backoff base, doubled per attempt (default 50ms)

	MaxJobsRetained int           // terminal job records kept for GET (default 10000)
	StreamInterval  time.Duration // progress-event period on /stream (default 500ms)

	JournalPath  string        // write-ahead journal file; "" disables durability
	CompactEvery int           // journal records between compactions (default 4096; <0 disables)
	PreemptGrace time.Duration // window a cancelled solve gets to unwind before force-finalize (default 3s)

	// recoveryGate, when non-nil, delays journal replay until the channel
	// is closed. Test hook: it makes the "recovering" window observable
	// deterministically. Production leaves it nil.
	recoveryGate chan struct{}

	Metrics *metrics.Registry // served by /metrics (created if nil)
	Trace   *trace.Recorder   // optional: one span per job attempt

	// Runner overrides the solve dispatch (tests, chaos). nil = DefaultRunner,
	// which routes through the phihpl facade's ctx-aware solvers.
	Runner RunnerFunc
}

// RunnerFunc executes one job attempt. rec receives the job's spans.
type RunnerFunc func(ctx context.Context, sp Spec, rec *trace.Recorder) (phihpl.SolveResult, error)

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	defD := func(v *time.Duration, d time.Duration) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.QueueDepth, 64)
	def(&c.Concurrency, 2)
	def(&c.TenantCap, max(1, c.Concurrency/2))
	def(&c.MaxN, 4096)
	def(&c.MaxGrid, 16)
	if c.MemBudget == 0 {
		c.MemBudget = 4 << 30
	}
	defD(&c.DefaultTimeout, time.Minute)
	defD(&c.MaxTimeout, 5*time.Minute)
	def(&c.DefaultRetries, 2)
	def(&c.MaxRetries, 5)
	defD(&c.RetryBase, 50*time.Millisecond)
	def(&c.MaxJobsRetained, 10000)
	defD(&c.StreamInterval, 500*time.Millisecond)
	def(&c.CompactEvery, 4096)
	defD(&c.PreemptGrace, 3*time.Second)
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner
	}
	return c
}

// cacheEntry is one single-flight slot: the leader job computes, followers
// attach and receive the leader's outcome, and completed PASSED/residual-
// FAILED results stay for exact (bitwise-deterministic) cache hits.
// Entries are only touched with Server.mu held.
type cacheEntry struct {
	leader    *job
	followers []*job
	complete  bool
	state     State
	result    *ResultView
	errInfo   *ErrorInfo
}

// Server is the multi-tenant solve service. Create with New, expose with
// Handler, stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg    Config
	reg    *metrics.Registry
	runner RunnerFunc

	runCtx    context.Context // parent of every job attempt
	cancelRun context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	queues    map[string][]*job // FIFO per tenant
	order     []string          // tenant round-robin order (insertion)
	credit    map[string]int    // WRR credits
	rr        int               // next tenant index to consider
	queuedN   int
	running   int
	runTenant map[string]int
	memUsed   int64
	entries   map[string]*cacheEntry
	jobs      map[string]*job
	jobOrder  []string // insertion order, for retention eviction
	seq       int
	draining  bool
	closed    bool
	drainedCh chan struct{}

	// Durability (nil/zero when Config.JournalPath is empty).
	jn          *journal.Journal
	generation  int   // boot generation; bumped once per journal replay
	walAppends  int64 // records since the last compaction
	recovering  bool  // journal replay in progress: submissions get 503
	recoveredCh chan struct{}
	recovery    RecoveryStats

	wg sync.WaitGroup

	// counters/gauges are pre-created: the hot path never touches the
	// registry map.
	mSubmitted, mRejectedFull, mRejectedInvalid, mRejectedDraining *metrics.Counter
	mRejectedRecovering                                            *metrics.Counter
	mCacheHits, mCacheJoins                                        *metrics.Counter
	mPassed, mFailed, mAborted, mRetries, mPanics                  *metrics.Counter
	mRecoveredTerminal, mRecoveredInterrupted, mRecoveredRequeued  *metrics.Counter
	mPreempted, mPreemptLate, mJournalDropped                      *metrics.Counter
	gQueued, gRunning, gMem                                        *metrics.Gauge
	hJobNs, hWaitNs                                                *metrics.Histogram
}

// New builds the server and starts its scheduler workers. It panics
// where Open fails (a journal that cannot be opened, a tenant weight for
// an invalid name); use Open where that error should be handled
// (cmd/hplserver does).
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds the server, opens the write-ahead journal when one is
// configured, starts the scheduler workers, and kicks off journal replay
// in the background. Until replay settles, the server reports
// "recovering": /readyz answers 503 and submissions are rejected with a
// Retry-After hint. A damaged journal never fails Open — the journal
// layer repairs what it can and counts what it dropped. A TenantWeights
// key no job's tenant could match is refused: its weight would never
// apply.
func Open(cfg Config) (*Server, error) {
	for t := range cfg.TenantWeights {
		if !tenantRe.MatchString(t) {
			return nil, fmt.Errorf("server: tenant weight for %q: tenant must match %s", t, tenantRe)
		}
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Metrics,
		runner:      cfg.Runner,
		queues:      map[string][]*job{},
		credit:      map[string]int{},
		runTenant:   map[string]int{},
		entries:     map[string]*cacheEntry{},
		jobs:        map[string]*job{},
		drainedCh:   make(chan struct{}),
		recoveredCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())

	r := s.reg
	s.mSubmitted = r.Counter("server.submitted")
	s.mRejectedFull = r.Counter("server.rejected_queue_full")
	s.mRejectedInvalid = r.Counter("server.rejected_invalid")
	s.mRejectedDraining = r.Counter("server.rejected_draining")
	s.mRejectedRecovering = r.Counter("server.rejected_recovering")
	s.mCacheHits = r.Counter("server.cache_hits")
	s.mCacheJoins = r.Counter("server.cache_inflight_joins")
	s.mPassed = r.Counter("server.jobs_passed")
	s.mFailed = r.Counter("server.jobs_failed")
	s.mAborted = r.Counter("server.jobs_aborted")
	s.mRetries = r.Counter("server.retries")
	s.mPanics = r.Counter("server.contained_panics")
	s.mRecoveredTerminal = r.Counter("server.recovered_terminal")
	s.mRecoveredInterrupted = r.Counter("server.recovered_interrupted")
	s.mRecoveredRequeued = r.Counter("server.recovered_requeued")
	s.mPreempted = r.Counter("server.preempted")
	s.mPreemptLate = r.Counter("server.preempt_late_returns")
	s.mJournalDropped = r.Counter("server.journal_dropped_records")
	s.gQueued = r.Gauge("server.queued")
	s.gRunning = r.Gauge("server.running")
	s.gMem = r.Gauge("server.mem_used_bytes")
	s.hJobNs = r.Histogram("server.job_ns")
	s.hWaitNs = r.Histogram("server.queue_wait_ns")

	if cfg.JournalPath != "" {
		jn, err := journal.Open(cfg.JournalPath, journal.Options{Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("server: open journal: %w", err)
		}
		s.jn = jn
		s.recovering = true
		go s.recoverFromJournal()
	} else {
		close(s.recoveredCh) // nothing to replay; ready immediately
	}

	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// tenantCounter bumps a per-tenant counter (get-or-create is mutexed in
// the registry; submission rate makes that cheap).
func (s *Server) tenantCounter(tenant, what string) {
	s.reg.Counter("server.tenant." + tenant + "." + what).Inc()
}

func (s *Server) weightFor(t string) int {
	if w := s.cfg.TenantWeights[t]; w > 0 {
		return w
	}
	return 1
}

// Submit validates and admits one job. On rejection the returned
// *apiError says why (and the submission is the client's only record —
// rejected submissions never become jobs).
func (s *Server) Submit(js JobSpec) (*job, *apiError) {
	sp, err := js.Validate(s.cfg)
	if err != nil {
		s.mRejectedInvalid.Inc()
		var bre *BadRequestError
		if errors.As(err, &bre) {
			return nil, &apiError{status: 400, code: bre.Code, field: bre.Field, msg: err.Error()}
		}
		return nil, &apiError{status: 400, code: "invalid", msg: err.Error()}
	}
	key := sp.CacheKey()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovering {
		s.mRejectedRecovering.Inc()
		return nil, &apiError{status: 503, code: "recovering",
			msg: "server is replaying its journal; retry shortly", retryAfter: 1}
	}
	if s.draining || s.closed {
		s.mRejectedDraining.Inc()
		return nil, &apiError{status: 503, code: "draining", msg: "server is draining; not admitting jobs"}
	}

	// Single-flight: an exact completed result is returned immediately; an
	// in-flight identical job is joined without consuming a queue slot.
	if key != "" {
		if e := s.entries[key]; e != nil {
			s.seq++
			j := newJob(s.seq, sp)
			j.follower = !e.complete
			s.registerLocked(j)
			s.logLocked(walRecord{T: "accept", ID: j.id, Seq: j.seq, Spec: j.spec.wireSpec(), Follower: j.follower})
			s.mSubmitted.Inc()
			s.tenantCounter(sp.Tenant, "submitted")
			if e.complete {
				s.mCacheHits.Inc()
				s.finishLocked(j, e.state, e.result, e.errInfo, true)
			} else {
				s.mCacheJoins.Inc()
				e.followers = append(e.followers, j)
			}
			s.maybeCompactLocked()
			return j, nil
		}
	}

	if s.queuedN >= s.cfg.QueueDepth {
		s.mRejectedFull.Inc()
		s.tenantCounter(sp.Tenant, "rejected")
		return nil, &apiError{status: 429, code: "queue_full",
			msg:        fmt.Sprintf("queue full (%d jobs); retry later", s.queuedN),
			retryAfter: s.retryAfterLocked()}
	}

	s.seq++
	j := newJob(s.seq, sp)
	s.registerLocked(j)
	s.logLocked(walRecord{T: "accept", ID: j.id, Seq: j.seq, Spec: j.spec.wireSpec()})
	if key != "" {
		s.entries[key] = &cacheEntry{leader: j}
	}
	if _, ok := s.queues[sp.Tenant]; !ok && !containsStr(s.order, sp.Tenant) {
		s.order = append(s.order, sp.Tenant)
		s.credit[sp.Tenant] = s.weightFor(sp.Tenant)
	}
	s.queues[sp.Tenant] = append(s.queues[sp.Tenant], j)
	s.queuedN++
	s.gQueued.Set(float64(s.queuedN))
	s.mSubmitted.Inc()
	s.tenantCounter(sp.Tenant, "submitted")
	j.enqueuedAt = time.Now()
	s.maybeCompactLocked()
	s.cond.Broadcast()
	return j, nil
}

// retryAfterLocked estimates a Retry-After hint for a 429: roughly the
// queue depth over the concurrency, clamped to [1, 30] seconds. The
// clamp matters after crash recovery, when re-enqueued jobs can legally
// push queuedN past QueueDepth — the hint must stay sane instead of
// scaling with the overshoot.
func (s *Server) retryAfterLocked() int {
	retry := 1 + s.queuedN/max(1, s.cfg.Concurrency)
	if retry > 30 {
		retry = 30
	}
	return retry
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// registerLocked adds j to the job table, evicting the oldest terminal
// records past the retention cap so a long-running server stays bounded.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobs) > s.cfg.MaxJobsRetained && len(s.jobOrder) > 0 {
		evicted := false
		for i, id := range s.jobOrder {
			old := s.jobs[id]
			if old == nil {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
			if old.currentState().Terminal() {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the table grow rather than drop state
		}
	}
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every retained job view (insertion order).
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.jobOrder...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Registry exposes the metrics registry (for /metrics and tests).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Ready reports whether the server is admitting jobs.
func (s *Server) Ready() bool {
	ok, _ := s.Readiness()
	return ok
}

// Readiness reports whether the server admits jobs and, when it does
// not, why: "recovering" while journal replay is still rebuilding the
// queue, "draining" once shutdown has begun. /readyz serves this.
func (s *Server) Readiness() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.recovering:
		return false, "recovering"
	case s.draining || s.closed:
		return false, "draining"
	}
	return true, ""
}

// worker is one scheduler loop: pick an eligible job under the fairness
// and memory rules, run it with deadline + retry + panic isolation
// (runJob gives the slot back as it finalizes the job).
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.hWaitNs.Observe(time.Since(j.enqueuedAt).Nanoseconds())
		s.runJob(id, j)
	}
}

// releaseLocked gives back the scheduler slot, tenant slot and
// admission-gate memory next() took for j, and wakes the scheduler.
// Callers hold s.mu and call it exactly once per run, in the critical
// section that makes j terminal and before finishLocked publishes it, so
// no observer ever sees a terminal job still holding its resources.
func (s *Server) releaseLocked(j *job) {
	s.running--
	s.runTenant[j.spec.Tenant]--
	s.memUsed -= j.memEst
	s.gRunning.Set(float64(s.running))
	s.gMem.Set(float64(s.memUsed))
	s.cond.Broadcast()
}

// next blocks until a job is runnable or the server closes (nil).
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if j := s.pickLocked(); j != nil {
			s.running++
			s.runTenant[j.spec.Tenant]++
			s.memUsed += j.memEst
			s.queuedN--
			s.gQueued.Set(float64(s.queuedN))
			s.gRunning.Set(float64(s.running))
			s.gMem.Set(float64(s.memUsed))
			return j
		}
		s.cond.Wait()
	}
}

// pickLocked implements the weighted round-robin dequeue with per-tenant
// running caps and the memory admission gate. Two passes: if every
// queued tenant is out of credit, refill and try again — weights shape
// the ratio, they never starve.
func (s *Server) pickLocked() *job {
	for pass := 0; pass < 2; pass++ {
		n := len(s.order)
		for k := 0; k < n; k++ {
			t := s.order[(s.rr+k)%n]
			q := s.queues[t]
			if len(q) == 0 || s.credit[t] <= 0 {
				continue
			}
			if s.runTenant[t] >= s.cfg.TenantCap {
				continue
			}
			j := q[0]
			// Memory gate: defer the job while running work holds the
			// budget; always admit when idle so progress is guaranteed.
			if s.memUsed+j.memEst > s.cfg.MemBudget && s.running > 0 {
				continue
			}
			s.queues[t] = q[1:]
			s.credit[t]--
			s.rr = (s.rr + k + 1) % n
			return j
		}
		for _, t := range s.order {
			s.credit[t] = s.weightFor(t)
		}
	}
	return nil
}

// runJob executes one job to a terminal state: server-enforced deadline
// across all attempts, retry-with-backoff on transient typed errors, and
// a recover barrier so a panicking solve yields a FAILED job, never a
// dead worker.
//
// The attempts run on their own goroutine so the scheduler slot is not
// hostage to a wedged solve. The preemption ladder on deadline expiry
// (or drain cancellation): the context cancellation IS the cooperative
// request; if the solve has not unwound after PreemptGrace, the job is
// force-finalized ABORTED with the wedged goroutine's stack attached,
// releasing the slot and the admission-gate memory, and runJob returns
// to the worker. The abandoned goroutine's eventual return is discarded
// (setRunning/finish are terminal-guarded, and it releases nothing) and
// counted.
func (s *Server) runJob(worker int, j *job) {
	ctx, cancel := context.WithTimeout(s.runCtx, j.spec.Timeout)
	defer cancel()
	start := time.Now()
	var t0 float64
	if s.cfg.Trace != nil {
		t0 = s.cfg.Trace.Start()
	}

	type outcome struct {
		res phihpl.SolveResult
		err error
	}
	resCh := make(chan outcome, 1) // buffered: a late sender never blocks
	go func() {
		res, err := s.runAttempts(ctx, j)
		resCh <- outcome{res, err}
	}()

	var out outcome
	forced := false
	select {
	case out = <-resCh:
	case <-ctx.Done():
		grace := time.NewTimer(s.cfg.PreemptGrace)
		select {
		case out = <-resCh:
			grace.Stop()
		case <-grace.C:
			forced = true
		}
	}

	elapsed := time.Since(start)
	s.hJobNs.Observe(elapsed.Nanoseconds())
	if s.cfg.Trace != nil {
		s.cfg.Trace.Since(worker, "job."+string(j.spec.Mode)+"."+j.spec.Tenant, j.seq, t0)
	}

	if forced {
		s.forceFinalize(j)
		go func() { // reap the abandoned goroutine's eventual return
			<-resCh
			s.mPreemptLate.Inc()
		}()
		return
	}

	state, view, ei := s.classify(j, out.res, out.err, elapsed)
	s.mu.Lock()
	s.releaseLocked(j)
	s.finishLocked(j, state, view, ei, false)
	s.maybeCompactLocked()
	s.mu.Unlock()
}

// runAttempts is the per-job retry loop (formerly inline in runJob), on
// its own goroutine so runJob can abandon it when it wedges.
func (s *Server) runAttempts(ctx context.Context, j *job) (phihpl.SolveResult, error) {
	var res phihpl.SolveResult
	var err error
	for attempt := 1; ; attempt++ {
		j.setRunning(attempt)
		s.mu.Lock()
		s.logLocked(walRecord{T: "run", ID: j.id, Attempt: attempt})
		s.mu.Unlock()
		res, err = s.protectedRun(ctx, j)
		if err == nil || !transientErr(err) || attempt > j.spec.Retries {
			break
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		s.mRetries.Inc()
		j.noteRetry(attempt, err)
		backoff := s.cfg.RetryBase << uint(attempt-1)
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			err = ctx.Err()
		case <-timer.C:
			continue
		}
		break
	}
	return res, err
}

// forceFinalize is the last rung of the preemption ladder: deadline
// expired, cancellation requested, grace window passed, and the solve
// goroutine still has not returned. Go cannot kill a goroutine, so the
// job is finalized ABORTED here — with the candidate wedged stacks
// attached for diagnosis — and the goroutine is abandoned, its scheduler
// slot and admission-gate memory released in the same critical section.
func (s *Server) forceFinalize(j *job) {
	s.mPreempted.Inc()
	ei := encodeError(&PreemptedError{
		Deadline: j.spec.Timeout,
		Grace:    s.cfg.PreemptGrace,
		Stack:    wedgedStacks(),
	})
	s.mu.Lock()
	s.releaseLocked(j)
	s.finishLocked(j, StateAborted, nil, ei, false)
	s.maybeCompactLocked()
	s.mu.Unlock()
}

// protectedRun invokes the runner behind the server's own recover barrier.
// The facade already converts worker panics into typed *pool.PanicError;
// this catches panics on the scheduler goroutine itself (a buggy runner,
// validation edge) with the same type, so the error contract is uniform.
func (s *Server) protectedRun(ctx context.Context, j *job) (res phihpl.SolveResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &pool.PanicError{Worker: -1, Value: v, Stack: string(debug.Stack())}
		}
	}()
	return s.runner(ctx, j.spec, j.rec)
}

// classify maps a run outcome onto the job state machine and builds the
// client-facing result/error.
func (s *Server) classify(j *job, res phihpl.SolveResult, err error, elapsed time.Duration) (State, *ResultView, *ErrorInfo) {
	if err == nil {
		secs := res.Seconds
		if secs == 0 {
			secs = elapsed.Seconds()
		}
		view := &ResultView{
			N:        res.N,
			Residual: res.Residual,
			Passed:   res.Passed,
			Seconds:  secs,
			Refine:   res.Refine,
			FT:       res.FT,
		}
		if secs > 0 {
			view.GFLOPS = phihpl.LUFlops(res.N) / secs / 1e9
		}
		if res.Passed {
			return StatePassed, view, nil
		}
		return StateFailed, view, &ErrorInfo{Kind: "residual",
			Message: fmt.Sprintf("residual %g exceeds the HPL threshold", res.Residual)}
	}
	ei := encodeError(err)
	if ei.Kind == "panic" {
		s.mPanics.Inc()
	}
	switch ei.Kind {
	case "aborted", "preempted", "interrupted":
		return StateAborted, nil, ei
	}
	return StateFailed, nil, ei
}

// finishLocked makes j terminal, settles its cache entry (followers get
// the identical outcome; only completed solves are kept for future hits),
// journals the end records, and bumps the terminal counters. Callers
// hold s.mu. A job that is already terminal is left untouched: a wedged
// solve that was force-finalized must not overwrite the preemption
// outcome (or double-journal) when it finally returns.
func (s *Server) finishLocked(j *job, state State, view *ResultView, ei *ErrorInfo, cached bool) {
	if j.currentState().Terminal() {
		return
	}
	var followers []*job
	if j.key != "" {
		if e := s.entries[j.key]; e != nil && e.leader == j {
			followers = e.followers
			e.followers = nil
			// Keep only real solve outcomes: PASSED, or a residual FAILED
			// (both bitwise deterministic). Aborts, panics and transient
			// errors are evicted so a later identical submission re-runs.
			if state == StatePassed || (state == StateFailed && ei != nil && ei.Kind == "residual") {
				e.complete = true
				e.state, e.result, e.errInfo = state, view, ei
				s.logLocked(walRecord{T: "cache", Key: j.key, State: state, Result: view, Error: ei})
			} else {
				delete(s.entries, j.key)
			}
		}
	}
	// Journal first, then publish: finish closes j.done, and whoever that
	// wakes may rely on the end record being durable already.
	_, _, _, _, attempts := j.snapshot()
	s.logLocked(walRecord{T: "end", ID: j.id, State: state, Result: view, Error: ei, Cached: cached, Attempt: attempts})
	j.finish(state, view, ei, cached)
	s.countTerminal(j.spec.Tenant, state)
	for _, f := range followers {
		_, _, _, _, fa := f.snapshot()
		s.logLocked(walRecord{T: "end", ID: f.id, State: state, Result: view, Error: ei, Cached: true, Attempt: fa})
		f.finish(state, view, ei, true)
		s.countTerminal(f.spec.Tenant, state)
	}
}

func (s *Server) countTerminal(tenant string, state State) {
	switch state {
	case StatePassed:
		s.mPassed.Inc()
		s.tenantCounter(tenant, "passed")
	case StateFailed:
		s.mFailed.Inc()
		s.tenantCounter(tenant, "failed")
	case StateAborted:
		s.mAborted.Inc()
		s.tenantCounter(tenant, "aborted")
	}
}

// Drain performs the graceful shutdown state machine: stop admitting
// (readyz flips unready), abort every queued job, let running jobs finish
// until ctx expires, then cancel them; finally stop the scheduler
// workers. It returns nil once the server is fully quiescent. Concurrent
// callers after the first wait for the same drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		ch := s.drainedCh
		s.mu.Unlock()
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.draining = true
	aborted := s.popAllQueuedLocked()
	ei := &ErrorInfo{Kind: "aborted", Message: "server draining: job aborted before it ran"}
	for _, j := range aborted {
		s.finishLocked(j, StateAborted, nil, ei, false)
	}
	s.mu.Unlock()

	// Let journal replay settle first (it is pure in-memory work and sees
	// s.draining, so recovered queued jobs abort rather than start).
	<-s.recoveredCh

	quiescent := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.running > 0 || s.queuedN > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(quiescent)
	}()
	select {
	case <-quiescent:
	case <-ctx.Done():
		// Drain deadline: cancel in-flight jobs. Cooperative runners observe
		// their context at scheduling boundaries and converge quickly; a
		// wedged one is force-finalized after PreemptGrace by the same
		// preemption ladder the per-job deadline uses, so quiescence is
		// bounded — the backstop below only guards against bugs in that
		// ladder itself.
		s.cancelRun()
		select {
		case <-quiescent:
		case <-time.After(s.cfg.PreemptGrace + 30*time.Second):
			return errors.New("server: drain incomplete: a job ignored cancellation")
		}
	}

	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.cancelRun()
	if s.jn != nil {
		_ = s.jn.Close()
	}
	close(s.drainedCh)
	return nil
}

// popAllQueuedLocked removes every queued job (drain path).
func (s *Server) popAllQueuedLocked() []*job {
	var out []*job
	for t, q := range s.queues {
		out = append(out, q...)
		s.queues[t] = nil
	}
	s.queuedN = 0
	s.gQueued.Set(0)
	s.cond.Broadcast()
	return out
}

// Close shuts down immediately: queued jobs abort, running jobs are
// cancelled now, workers stop. For tests and fatal paths; prefer Drain.
func (s *Server) Close() {
	s.cancelRun()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Drain skips straight to cancellation
	_ = s.Drain(ctx)
}
