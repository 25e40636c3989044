package server

import (
	"context"
	"encoding/json"
	"time"

	"phihpl"
	"phihpl/internal/journal"
)

// walRecord is one frame of the server's write-ahead journal: the job
// lifecycle (accept → run → end) plus result-cache inserts and boot
// markers. The journal is the source of truth for crash recovery — a
// record is fsynced before the transition it describes becomes visible
// to clients, so replaying the journal rebuilds exactly the state any
// client could have observed.
//
// Record types:
//
//	boot    one per server start; Gen is the monotonically increasing
//	        boot generation (recovery stamps it into InterruptedError)
//	accept  a submission was admitted: ID, Seq, the normalized wire
//	        Spec, and whether it attached to an in-flight cache entry
//	run     an attempt started (Attempt); presence without a matching
//	        end is how recovery detects running-at-crash jobs
//	end     the terminal transition: State, Result/Error, Cached,
//	        and the final Attempt count (for byte-identical restore)
//	cache   a deterministic result entered the single-flight cache
//	        under Key; replay restores instant cache hits
type walRecord struct {
	T        string      `json:"t"`
	Gen      int         `json:"gen,omitempty"`      // boot
	ID       string      `json:"id,omitempty"`       // accept | run | end
	Seq      int         `json:"seq,omitempty"`      // accept
	Spec     *JobSpec    `json:"spec,omitempty"`     // accept
	Follower bool        `json:"follower,omitempty"` // accept
	Attempt  int         `json:"attempt,omitempty"`  // run | end
	State    State       `json:"state,omitempty"`    // end | cache
	Cached   bool        `json:"cached,omitempty"`   // end
	Result   *ResultView `json:"result,omitempty"`   // end | cache
	Error    *ErrorInfo  `json:"error,omitempty"`    // end | cache
	Key      string      `json:"key,omitempty"`      // cache
}

// wireSpec projects a validated Spec back onto the wire format, so an
// accept record replays through the same Validate path a live submission
// took. Round-tripping through Validate (rather than persisting the
// normalized Spec) means recovered jobs are re-checked against the
// *current* server limits — a job that no longer fits is aborted with a
// typed reason instead of silently running outside the gate.
func (sp Spec) wireSpec() *JobSpec {
	js := &JobSpec{
		Tenant:      sp.Tenant,
		Mode:        string(sp.Mode),
		N:           sp.N,
		NB:          sp.NB,
		Workers:     sp.Workers,
		P:           sp.P,
		Q:           sp.Q,
		Seed:        sp.Seed,
		Precision:   sp.Precision.String(),
		Lookahead:   sp.Lookahead.String(),
		Faults:      sp.Faults,
		TimeoutMs:   int(sp.Timeout / time.Millisecond),
		FTTimeoutMs: int(sp.FT.Timeout / time.Millisecond),
		CkptEvery:   sp.FT.CheckpointEvery,
		MaxRestarts: sp.FT.MaxRestarts,
	}
	r := sp.Retries
	js.MaxRetries = &r
	return js
}

// looseSpec builds an unvalidated Spec from a recovered wire spec whose
// re-validation failed (the server's limits shrank across the restart).
// The job built from it goes straight to a terminal state — the spec is
// only needed for the client-facing view, never for scheduling.
func looseSpec(js *JobSpec) Spec {
	sp := Spec{
		Spec: phihpl.Spec{Mode: Mode(js.Mode), N: js.N, NB: js.NB, Workers: js.Workers,
			P: js.P, Q: js.Q, Seed: js.Seed},
		Tenant: js.Tenant, Faults: js.Faults,
	}
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	return sp
}

// RecoveryStats summarizes one journal replay (WaitRecovered returns it;
// cmd/hplserver prints it as the recovery banner).
type RecoveryStats struct {
	Generation       int               // this boot's generation
	RestoredTerminal int               // terminal job records restored verbatim
	RestoredCache    int               // single-flight cache entries restored
	Requeued         int               // queued-at-crash jobs re-enqueued
	Interrupted      int               // running-at-crash (or follower) jobs aborted
	Invalid          int               // recovered jobs no longer admissible under current limits
	Malformed        int               // records dropped as undecodable (journal-level damage is in Journal)
	Journal          journal.ScanStats // frame-level repair stats from the open scan
}

// logLocked appends one record to the journal (fsync-on-commit). Callers
// hold s.mu; the append therefore serializes with the state transition
// it describes and is durable before that transition is visible to any
// client. A failed append (disk full, closed journal during shutdown) is
// counted, not fatal — the server keeps serving from memory.
func (s *Server) logLocked(r walRecord) {
	if s.jn == nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		s.mJournalDropped.Inc()
		return
	}
	if err := s.jn.Append(b); err != nil {
		s.mJournalDropped.Inc()
		return
	}
	s.walAppends++
}

// maybeCompactLocked runs snapshot-then-rotate compaction once enough
// records accumulated. Called only at quiescent points (end of Submit,
// end of finishLocked, after a run record) — never mid-transition, so
// the snapshot always captures a replayable state.
func (s *Server) maybeCompactLocked() {
	if s.jn == nil || s.cfg.CompactEvery <= 0 || s.walAppends < int64(s.cfg.CompactEvery) {
		return
	}
	s.walAppends = 0
	var snap [][]byte
	add := func(r walRecord) {
		if b, err := json.Marshal(r); err == nil {
			snap = append(snap, b)
		}
	}
	add(walRecord{T: "boot", Gen: s.generation})
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		add(walRecord{T: "accept", ID: j.id, Seq: j.seq, Spec: j.spec.wireSpec(), Follower: j.follower})
		state, view, ei, cached, attempts := j.snapshot()
		switch {
		case state.Terminal():
			add(walRecord{T: "end", ID: j.id, State: state, Result: view, Error: ei, Cached: cached, Attempt: attempts})
		case attempts > 0:
			add(walRecord{T: "run", ID: j.id, Attempt: attempts})
		}
	}
	for key, e := range s.entries {
		if e.complete {
			add(walRecord{T: "cache", Key: key, State: e.state, Result: e.result, Error: e.errInfo})
		}
	}
	_ = s.jn.Compact(snap) // failure counted inside the journal; old log remains valid
}

// recoverFromJournal is the startup replay: rebuild the job table and
// result cache from the pre-crash records, then settle the survivors —
// queued jobs are re-enqueued (legally overshooting QueueDepth for one
// scheduling round rather than 429-ing recovered work), running-at-crash
// and follower jobs are aborted with a typed InterruptedError carrying
// the new boot generation. Runs on its own goroutine; until it closes
// recoveredCh the server answers 503 "recovering" to submissions and
// /readyz.
func (s *Server) recoverFromJournal() {
	defer close(s.recoveredCh)
	if s.cfg.recoveryGate != nil {
		<-s.cfg.recoveryGate
	}
	recs := s.jn.TakeRecords()

	s.mu.Lock()
	defer s.mu.Unlock()

	type replayJob struct {
		j       *job
		ran     bool
		invalid bool
		reason  string
	}
	byID := map[string]*replayJob{}
	var order []string

	for _, raw := range recs {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			s.recovery.Malformed++
			continue
		}
		switch r.T {
		case "boot":
			if r.Gen > s.generation {
				s.generation = r.Gen
			}
		case "accept":
			if r.Spec == nil || r.ID == "" || byID[r.ID] != nil {
				s.recovery.Malformed++
				continue
			}
			rj := &replayJob{}
			sp, err := r.Spec.Validate(s.cfg)
			if err != nil {
				sp = looseSpec(r.Spec)
				rj.invalid, rj.reason = true, err.Error()
			}
			j := newJob(r.Seq, sp)
			j.id = r.ID
			j.follower = r.Follower
			rj.j = j
			byID[r.ID] = rj
			order = append(order, r.ID)
			if r.Seq > s.seq {
				s.seq = r.Seq
			}
			s.registerLocked(j)
		case "run":
			if rj := byID[r.ID]; rj != nil {
				rj.ran = true
				rj.j.restoreAttempts(r.Attempt)
			} else {
				s.recovery.Malformed++
			}
		case "end":
			rj := byID[r.ID]
			if rj == nil {
				s.recovery.Malformed++
				continue
			}
			rj.j.restoreAttempts(r.Attempt)
			rj.j.finish(r.State, r.Result, r.Error, r.Cached)
			s.recovery.RestoredTerminal++
			s.mRecoveredTerminal.Inc()
		case "cache":
			if r.Key == "" {
				s.recovery.Malformed++
				continue
			}
			s.entries[r.Key] = &cacheEntry{complete: true, state: r.State, result: r.Result, errInfo: r.Error}
			s.recovery.RestoredCache++
		default:
			s.recovery.Malformed++
		}
	}

	s.generation++
	s.recovery.Generation = s.generation
	s.recovery.Journal = s.jn.ScanStats()
	s.logLocked(walRecord{T: "boot", Gen: s.generation})

	for _, id := range order {
		rj := byID[id]
		j := rj.j
		if j.currentState().Terminal() {
			continue
		}
		switch {
		case rj.invalid:
			s.recovery.Invalid++
			ei := &ErrorInfo{
				Kind:       "interrupted",
				Message:    "recovered job is no longer admissible under the restarted server's limits: " + rj.reason,
				Generation: s.generation,
			}
			s.finishLocked(j, StateAborted, nil, ei, false)
		case rj.ran || j.follower:
			// RUNNING at crash (or attached to an in-flight leader that was):
			// the half-run solve is untrustworthy; abort with the typed
			// reason so the caller knows a resubmit re-runs it.
			s.recovery.Interrupted++
			s.mRecoveredInterrupted.Inc()
			s.finishLocked(j, StateAborted, nil, encodeError(&InterruptedError{Generation: s.generation}), false)
		default:
			s.requeueRecoveredLocked(j)
		}
	}

	if s.draining || s.closed {
		// A drain raced recovery: recovered queued jobs abort exactly like
		// live queued jobs would.
		ei := &ErrorInfo{Kind: "aborted", Message: "server draining: job aborted before it ran"}
		for _, j := range s.popAllQueuedLocked() {
			s.finishLocked(j, StateAborted, nil, ei, false)
		}
	}
	s.maybeCompactLocked()
	s.recovering = false
	s.cond.Broadcast()
}

// requeueRecoveredLocked puts a queued-at-crash job back on its tenant
// queue. Recovered jobs bypass the QueueDepth bound — rejecting work the
// server already accepted (and journaled) with a 429 would break the
// accept contract; the queue instead runs over-depth for one scheduling
// round while new submissions see 429 with a clamped Retry-After.
func (s *Server) requeueRecoveredLocked(j *job) {
	if j.key != "" {
		if e := s.entries[j.key]; e != nil {
			if e.complete {
				// An identical spec completed before the crash: instant hit.
				s.mCacheHits.Inc()
				s.finishLocked(j, e.state, e.result, e.errInfo, true)
				return
			}
			if e.leader != nil {
				e.followers = append(e.followers, j)
				return
			}
			e.leader = j
		} else {
			s.entries[j.key] = &cacheEntry{leader: j}
		}
	}
	if _, ok := s.queues[j.spec.Tenant]; !ok && !containsStr(s.order, j.spec.Tenant) {
		s.order = append(s.order, j.spec.Tenant)
		s.credit[j.spec.Tenant] = s.weightFor(j.spec.Tenant)
	}
	s.queues[j.spec.Tenant] = append(s.queues[j.spec.Tenant], j)
	s.queuedN++
	s.gQueued.Set(float64(s.queuedN))
	s.recovery.Requeued++
	s.mRecoveredRequeued.Inc()
	j.enqueuedAt = time.Now()
	s.cond.Broadcast()
}

// WaitRecovered blocks until journal replay has settled every recovered
// job (immediately for a journal-less server) and returns the stats.
func (s *Server) WaitRecovered(ctx context.Context) (RecoveryStats, error) {
	select {
	case <-s.recoveredCh:
	case <-ctx.Done():
		return RecoveryStats{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery, nil
}
