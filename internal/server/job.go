// Package server turns the cancellable, observable solver stack into a
// long-running HPL-as-a-service: an HTTP/JSON job API backed by a bounded
// multi-tenant queue, a scheduler that multiplexes jobs over the shared
// internal/pool workers through the phihpl facade's one entry point
// (phihpl.Run of the job's phihpl.Spec), single-flight
// result caching (runs are bitwise deterministic, so cache hits are
// exact), per-job panic isolation, retry-with-backoff for transient typed
// errors, and graceful drain.
//
// Robustness is the design center, not an afterthought:
//
//   - Admission control: a full queue answers 429 + Retry-After instead of
//     growing without bound; invalid requests get typed 4xx errors; a
//     memory gate estimates each job's matrix footprint and keeps the sum
//     of running jobs under a budget — jobs queue rather than OOM.
//   - Per-tenant fairness: weighted round-robin dequeue plus per-tenant
//     concurrent-job caps, so a heavy tenant cannot starve a light one.
//   - Isolation: every job attempt runs behind a recover barrier; a
//     panicking solve yields a FAILED job carrying the typed
//     *pool.PanicError — never a dead server.
//   - Degradation: jobs failing with transient typed errors (ErrTimeout,
//     ErrRankFailed from fault-injected runs) are retried with backoff up
//     to a per-job budget; every job runs under a server-enforced deadline.
//   - Lifecycle: Drain stops admission, aborts queued jobs, gives running
//     jobs a deadline to finish, then cancels them — the process exits 0.
//
// See DESIGN.md §11 for the admission/fairness/drain state machine and
// the error contract.
package server

import (
	"fmt"
	"regexp"
	"sync"
	"time"

	"phihpl"
	"phihpl/internal/trace"
)

// State is a job's lifecycle state. QUEUED and RUNNING are transient;
// PASSED, FAILED and ABORTED are terminal. A submission that is never
// admitted (bad request, full queue, draining server) is REJECTED — it
// gets an error response, not a job record.
type State string

// Job states.
const (
	StateQueued   State = "QUEUED"
	StateRunning  State = "RUNNING"
	StatePassed   State = "PASSED"  // solve completed, residual under threshold
	StateFailed   State = "FAILED"  // residual failure or typed error (incl. panic)
	StateAborted  State = "ABORTED" // deadline, client cancel, or server drain
	StateRejected State = "REJECTED"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StatePassed || s == StateFailed || s == StateAborted
}

// Mode selects the solver a job runs: the facade's Mode, whose strings are
// the wire's, the journal's and the cache key's.
type Mode = phihpl.Mode

// Solver modes.
const (
	ModeNative   = phihpl.ModeNative
	ModeDist2D   = phihpl.ModeDist2D
	ModeHybrid2D = phihpl.ModeHybrid2D
	ModeFT       = phihpl.ModeFT
)

// JobSpec is the wire format of POST /v1/solve. Zero fields take server
// defaults; see Validate for the accepted ranges.
type JobSpec struct {
	Tenant    string `json:"tenant,omitempty"`
	Mode      string `json:"mode,omitempty"`      // native | dist2d | hybrid2d | ft (default native)
	N         int    `json:"n"`                   // problem size (required)
	NB        int    `json:"nb,omitempty"`        // block size (default 64)
	Workers   int    `json:"workers,omitempty"`   // native thread groups (default 4)
	P         int    `json:"p,omitempty"`         // process rows (default 1; dist modes 2)
	Q         int    `json:"q,omitempty"`         // process cols (default 1; dist modes 2)
	Seed      uint64 `json:"seed,omitempty"`      // matrix seed (default 1)
	Precision string `json:"precision,omitempty"` // fp64 | mixed (all modes except ft)
	Lookahead string `json:"lookahead,omitempty"` // none | basic | pipelined (dist modes)
	Faults    string `json:"faults,omitempty"`    // fault plan spec (ft only)

	TimeoutMs  int  `json:"timeout_ms,omitempty"`  // per-job deadline (clamped to the server max)
	MaxRetries *int `json:"max_retries,omitempty"` // transient-error retry budget (nil = server default)

	FTTimeoutMs int `json:"ft_timeout_ms,omitempty"` // ft: per-op timeout before a rank is declared failed
	CkptEvery   int `json:"ckpt_every,omitempty"`    // ft: checkpoint period in panel stages
	MaxRestarts int `json:"max_restarts,omitempty"`  // ft: rollback budget
}

// Spec is a validated, normalized job: every field is in range, enums are
// parsed, and defaults are applied. It is what the Runner receives: the
// solve itself (the facade's Spec, run by phihpl.Run) plus the job's
// tenant, fault-plan source text, deadline and retry budget.
type Spec struct {
	phihpl.Spec
	Tenant  string
	Faults  string
	Timeout time.Duration
	Retries int
}

var tenantRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Validate checks js against the server limits and returns the normalized
// Spec. Every failure is a *BadRequestError naming the offending field;
// an unsupported-but-well-formed combination — one phihpl.Spec.Validate
// refuses: mixed precision with the fault-tolerant mode, a fault plan off
// it — is a *BadRequestError with Code "unsupported", mirroring cmd/hpl's
// exit-code-3 contract.
func (js JobSpec) Validate(cfg Config) (Spec, error) {
	sp := Spec{
		Spec:   phihpl.Spec{N: js.N, NB: js.NB, Workers: js.Workers, P: js.P, Q: js.Q, Seed: js.Seed},
		Tenant: js.Tenant,
		Faults: js.Faults,
	}
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if !tenantRe.MatchString(sp.Tenant) {
		return Spec{}, badField("tenant", "must match %s", tenantRe)
	}
	switch Mode(js.Mode) {
	case "", ModeNative:
		sp.Mode = ModeNative
	case ModeDist2D, ModeHybrid2D, ModeFT:
		sp.Mode = Mode(js.Mode)
	default:
		return Spec{}, badField("mode", "unknown mode %q (native | dist2d | hybrid2d | ft)", js.Mode)
	}
	if sp.N < 1 || sp.N > cfg.MaxN {
		return Spec{}, badField("n", "must be in [1, %d]", cfg.MaxN)
	}
	if sp.NB == 0 {
		sp.NB = 64
	}
	if sp.NB < 1 || sp.NB > 4096 {
		return Spec{}, badField("nb", "must be in [1, 4096]")
	}
	if sp.Workers == 0 {
		sp.Workers = 4
	}
	if sp.Workers < 1 || sp.Workers > 256 {
		return Spec{}, badField("workers", "must be in [1, 256]")
	}
	dist := sp.Mode != ModeNative
	if sp.P == 0 {
		sp.P = 1
		if dist {
			sp.P = 2
		}
	}
	if sp.Q == 0 {
		sp.Q = 1
		if dist {
			sp.Q = 2
		}
	}
	if sp.P < 1 || sp.Q < 1 || sp.P*sp.Q > cfg.MaxGrid {
		return Spec{}, badField("p,q", "grid must satisfy 1 <= p*q <= %d", cfg.MaxGrid)
	}
	var err error
	if sp.Precision, err = phihpl.ParsePrecisionMode(defaultStr(js.Precision, "fp64")); err != nil {
		return Spec{}, badField("precision", "%v", err)
	}
	if sp.Lookahead, err = phihpl.ParseLookaheadMode(defaultStr(js.Lookahead, "pipelined")); err != nil {
		return Spec{}, badField("lookahead", "%v", err)
	}
	if sp.Faults != "" {
		if sp.FT.Plan, err = phihpl.ParseFaultPlan(sp.Faults); err != nil {
			return Spec{}, badField("faults", "%v", err)
		}
	}
	if err := sp.Spec.Validate(); err != nil {
		// The range checks above leave the facade only its unsupported
		// combinations: mixed precision with ft, a fault plan off ft.
		field := "faults"
		if sp.Mode == ModeFT {
			field = "precision"
		}
		return Spec{}, &BadRequestError{Field: field, Code: "unsupported", Msg: err.Error()}
	}
	if js.TimeoutMs < 0 || js.FTTimeoutMs < 0 || js.CkptEvery < 0 || js.MaxRestarts < 0 {
		return Spec{}, badField("timeout_ms", "durations and budgets must be non-negative")
	}
	sp.Timeout = cfg.DefaultTimeout
	if js.TimeoutMs > 0 {
		sp.Timeout = time.Duration(js.TimeoutMs) * time.Millisecond
	}
	if sp.Timeout > cfg.MaxTimeout {
		sp.Timeout = cfg.MaxTimeout // server-enforced ceiling, never a 4xx
	}
	sp.Retries = cfg.DefaultRetries
	if js.MaxRetries != nil {
		if *js.MaxRetries < 0 || *js.MaxRetries > cfg.MaxRetries {
			return Spec{}, badField("max_retries", "must be in [0, %d]", cfg.MaxRetries)
		}
		sp.Retries = *js.MaxRetries
	}
	sp.FT.Timeout = time.Duration(js.FTTimeoutMs) * time.Millisecond
	sp.FT.CheckpointEvery = js.CkptEvery
	sp.FT.MaxRestarts = js.MaxRestarts
	if est := sp.MemEstimate(); est > cfg.MemBudget {
		return Spec{}, badField("n", "estimated footprint %d bytes exceeds the server memory budget %d",
			est, cfg.MemBudget)
	}
	return sp, nil
}

func defaultStr(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// MemEstimate is the admission gate's rough per-job matrix footprint: the
// FP64 system plus vectors, once for native (it factors A in place; the
// facade's TestNativeSolveHoldsOneMatrix pins one n×n object), 3× for the
// distributed drivers (the ranks' blocks, the root's gather of the others'
// local matrices and the stage payloads in flight: 2.85–3.09× measured on
// 2×2, DESIGN.md §21), 4× for FT (plus ABFT checksums and checkpoints). A
// mixed-precision job additionally carries an FP32 shadow of the matrix
// (half the FP64 bytes — the n² float32 mirror for native, the distributed
// FP32 blocks plus the root's gathered FP32 factors for the 2D drivers).
// Deliberately pessimistic — the gate exists to queue jobs rather than
// OOM, not to pack memory tightly.
func (sp Spec) MemEstimate() int64 {
	n := int64(sp.N)
	base := 8 * (n*n + 8*n)
	shadow := int64(0)
	if sp.Precision == phihpl.PrecisionMixed {
		shadow = 4 * n * n
	}
	switch sp.Mode {
	case ModeNative:
		return base + shadow
	case ModeFT:
		return 4 * base // ft+mixed is rejected by Validate; no shadow term
	default: // dist2d, hybrid2d
		return 3*base + 2*shadow
	}
}

// CacheKey identifies a job's bitwise-deterministic result. Runs with a
// fault plan are excluded (injected faults perturb timing-dependent
// recovery paths), as are the worker/grid-independent knobs proven not to
// change bits (worker count is bitwise invariant, but grid shape is part
// of the result identity via Seconds/FT stats, so it stays in the key).
// An empty key means "do not cache".
func (sp Spec) CacheKey() string {
	if sp.Faults != "" {
		return ""
	}
	return fmt.Sprintf("%s|n=%d|nb=%d|p=%d|q=%d|seed=%d|prec=%s|la=%s",
		sp.Mode, sp.N, sp.NB, sp.P, sp.Q, sp.Seed, sp.Precision, sp.Lookahead)
}

// Event is one entry of a job's progress stream (GET /v1/jobs/{id}/stream).
type Event struct {
	Type    string  `json:"type"` // state | retry | progress | done
	State   State   `json:"state,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Message string  `json:"message,omitempty"`
	Spans   int     `json:"spans,omitempty"`     // trace spans recorded so far
	Elapsed float64 `json:"elapsed_s,omitempty"` // seconds since the job started running
}

// ResultView is the client-facing outcome of a completed solve: the HPL
// verdict and rates, never the solution vector itself (X is dropped to
// keep the server's resident memory bounded).
type ResultView struct {
	N        int                  `json:"n"`
	Residual float64              `json:"residual"`
	Passed   bool                 `json:"passed"`
	Seconds  float64              `json:"seconds"`
	GFLOPS   float64              `json:"gflops"`
	Refine   *phihpl.RefineReport `json:"refine,omitempty"`
	FT       *phihpl.FTStats      `json:"ft,omitempty"`
}

// JobView is the JSON representation of a job (GET /v1/jobs/{id}).
type JobView struct {
	ID       string      `json:"id"`
	Tenant   string      `json:"tenant"`
	Mode     Mode        `json:"mode"`
	State    State       `json:"state"`
	N        int         `json:"n"`
	NB       int         `json:"nb"`
	P        int         `json:"p,omitempty"`
	Q        int         `json:"q,omitempty"`
	Seed     uint64      `json:"seed"`
	Attempts int         `json:"attempts"`
	Cached   bool        `json:"cached,omitempty"` // served from the single-flight cache
	Result   *ResultView `json:"result,omitempty"`
	Error    *ErrorInfo  `json:"error,omitempty"`
}

// job is the server-side record of one admitted submission.
type job struct {
	id       string
	seq      int
	spec     Spec
	key      string // cache key; "" = uncacheable
	memEst   int64
	rec      *trace.Recorder // per-job spans, feeds the progress stream
	follower bool            // attached to another job's in-flight cache entry

	enqueuedAt time.Time // set under Server.mu when the job enters the queue

	mu       sync.Mutex
	state    State
	attempts int
	cached   bool
	result   *ResultView
	errInfo  *ErrorInfo
	started  time.Time
	events   []Event
	subs     []chan Event
	done     chan struct{} // closed exactly once, on the terminal transition
}

func newJob(seq int, sp Spec) *job {
	j := &job{
		id:     fmt.Sprintf("j-%d", seq),
		seq:    seq,
		spec:   sp,
		key:    sp.CacheKey(),
		memEst: sp.MemEstimate(),
		rec:    new(trace.Recorder),
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	j.events = append(j.events, Event{Type: "state", State: StateQueued})
	return j
}

// publishLocked appends e and fans it out; j.mu must be held. Slow
// subscribers lose events rather than block the scheduler.
func (j *job) publishLocked(e Event) {
	j.events = append(j.events, e)
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// setRunning transitions QUEUED→RUNNING for the given attempt. A job
// that is already terminal stays terminal: a force-finalized (preempted)
// job's wedged runner may come back and try to start a retry attempt,
// and that late transition must be a no-op.
func (j *job) setRunning(attempt int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = StateRunning
	j.attempts = attempt
	if attempt == 1 {
		j.started = time.Now()
	}
	j.publishLocked(Event{Type: "state", State: StateRunning, Attempt: attempt})
}

// noteRetry records a transient failure that will be retried.
func (j *job) noteRetry(attempt int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(Event{Type: "retry", Attempt: attempt, Message: err.Error()})
}

// finish makes the terminal transition. It is idempotent: only the first
// call wins (a drain racing a normal completion must not double-close).
func (j *job) finish(state State, res *ResultView, ei *ErrorInfo, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = res
	j.errInfo = ei
	j.cached = cached
	j.publishLocked(Event{Type: "done", State: state, Attempt: j.attempts})
	close(j.done)
}

// restoreAttempts sets the attempt counter from a journal record so a
// recovered job's view matches its pre-crash one. Only raises.
func (j *job) restoreAttempts(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > j.attempts {
		j.attempts = n
	}
}

// snapshot returns the fields the journal's compaction snapshot needs in
// one consistent read.
func (j *job) snapshot() (State, *ResultView, *ErrorInfo, bool, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.errInfo, j.cached, j.attempts
}

// subscribe returns the events so far plus a channel of future ones;
// call the returned cancel when done reading.
func (j *job) subscribe() (past []Event, ch chan Event, cancel func()) {
	ch = make(chan Event, 64)
	j.mu.Lock()
	past = append(past, j.events...)
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return past, ch, func() {
		j.mu.Lock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
}

// view snapshots the job for JSON.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:       j.id,
		Tenant:   j.spec.Tenant,
		Mode:     j.spec.Mode,
		State:    j.state,
		N:        j.spec.N,
		NB:       j.spec.NB,
		P:        j.spec.P,
		Q:        j.spec.Q,
		Seed:     j.spec.Seed,
		Attempts: j.attempts,
		Cached:   j.cached,
		Result:   j.result,
		Error:    j.errInfo,
	}
}

// currentState returns the state without the full view.
func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// progressEvent samples the live job for the stream's periodic tick.
func (j *job) progressEvent() Event {
	j.mu.Lock()
	started := j.started
	attempt := j.attempts
	j.mu.Unlock()
	e := Event{Type: "progress", Attempt: attempt, Spans: len(j.rec.Spans())}
	if !started.IsZero() {
		e.Elapsed = time.Since(started).Seconds()
	}
	return e
}
