package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phihpl"
	"phihpl/internal/cluster"
	"phihpl/internal/testutil"
	"phihpl/internal/trace"
)

// testConfig returns a config tuned for fast, deterministic tests.
func testConfig() Config {
	return Config{
		QueueDepth:     8,
		Concurrency:    2,
		TenantCap:      1,
		MaxN:           512,
		DefaultRetries: 0,
		RetryBase:      time.Millisecond,
		DefaultTimeout: 30 * time.Second,
		StreamInterval: 10 * time.Millisecond,
	}
}

// passRunner returns an immediately-passing dummy result.
func passRunner(_ context.Context, sp Spec, _ *trace.Recorder) (phihpl.SolveResult, error) {
	return phihpl.SolveResult{N: sp.N, Residual: 1e-3, Passed: true}, nil
}

// gatedRunner blocks until the gate closes (or ctx is done), then passes.
func gatedRunner(gate chan struct{}) RunnerFunc {
	return func(ctx context.Context, sp Spec, _ *trace.Recorder) (phihpl.SolveResult, error) {
		select {
		case <-gate:
			return phihpl.SolveResult{N: sp.N, Residual: 1e-3, Passed: true}, nil
		case <-ctx.Done():
			return phihpl.SolveResult{}, ctx.Err()
		}
	}
}

func waitState(t *testing.T, j *job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.currentState() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s: state %s, want %s", j.id, j.currentState(), want)
}

func waitTerminal(t *testing.T, j *job) State {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state (now %s)", j.id, j.currentState())
	}
	return j.currentState()
}

func mustSubmit(t *testing.T, s *Server, js JobSpec) *job {
	t.Helper()
	j, ae := s.Submit(js)
	if ae != nil {
		t.Fatalf("submit: %v (status %d)", ae.msg, ae.status)
	}
	return j
}

func TestValidationTypedErrors(t *testing.T) {
	defer testutil.NoLeaks(t)()
	s := New(testConfig())
	defer s.Close()
	mixed := "mixed"
	cases := []struct {
		name   string
		js     JobSpec
		status int
		code   string
	}{
		{"zero n", JobSpec{N: 0}, 400, "invalid"},
		{"n too large", JobSpec{N: 100000}, 400, "invalid"},
		{"bad mode", JobSpec{N: 64, Mode: "quantum"}, 400, "invalid"},
		{"bad nb", JobSpec{N: 64, NB: -4}, 400, "invalid"},
		{"bad tenant", JobSpec{N: 64, Tenant: "no spaces!"}, 400, "invalid"},
		{"grid too big", JobSpec{N: 64, Mode: "dist2d", P: 8, Q: 8}, 400, "invalid"},
		{"mixed on ft", JobSpec{N: 64, Mode: "ft", Precision: mixed}, 400, "unsupported"},
		{"faults on native", JobSpec{N: 64, Faults: "seed=1;drop=0.1"}, 400, "unsupported"},
		{"bad fault plan", JobSpec{N: 64, Mode: "ft", Faults: "garbage==="}, 400, "invalid"},
		{"bad precision", JobSpec{N: 64, Precision: "fp8"}, 400, "invalid"},
		{"bad lookahead", JobSpec{N: 64, Lookahead: "psychic"}, 400, "invalid"},
	}
	for _, tc := range cases {
		j, ae := s.Submit(tc.js)
		if ae == nil {
			t.Errorf("%s: admitted as %s, want rejection", tc.name, j.id)
			continue
		}
		if ae.status != tc.status || ae.code != tc.code {
			t.Errorf("%s: got status=%d code=%q, want %d/%q (%s)",
				tc.name, ae.status, ae.code, tc.status, tc.code, ae.msg)
		}
	}
	if got := s.Registry().Counter("server.rejected_invalid").Value(); got != int64(len(cases)) {
		t.Errorf("rejected_invalid = %d, want %d", got, len(cases))
	}
}

// TestQueueFull429 exercises the admission-control path end to end over
// HTTP: a full queue answers 429 with Retry-After and a REJECTED body,
// and admitted jobs still finish once the gate opens.
func TestQueueFull429(t *testing.T) {
	defer testutil.NoLeaks(t)()
	gate := make(chan struct{})
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.Concurrency = 1
	cfg.Runner = gatedRunner(gate)
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(tenant string) *http.Response {
		t.Helper()
		body := `{"mode":"native","n":64,"seed":` + fmt.Sprint(time.Now().UnixNano()) + `}`
		req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", strings.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		return resp
	}
	decode := func(resp *http.Response, v any) {
		t.Helper()
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}

	// One running + two queued fills the world (depth 2, concurrency 1).
	var first JobView
	resp := post("a")
	decode(resp, &first)
	waitRunning := func() {
		j, _ := s.Job(first.ID)
		waitState(t, j, StateRunning)
	}
	waitRunning()
	var admitted []string
	admitted = append(admitted, first.ID)
	for i := 0; i < 2; i++ {
		var jv JobView
		resp := post("a")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, resp.StatusCode)
		}
		decode(resp, &jv)
		admitted = append(admitted, jv.ID)
	}

	resp = post("b")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	var eb errorBody
	decode(resp, &eb)
	if eb.State != StateRejected || eb.Error == nil || eb.Error.Kind != "queue_full" {
		t.Errorf("429 body = %+v, want REJECTED/queue_full", eb)
	}
	if got := s.Registry().Counter("server.rejected_queue_full").Value(); got != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", got)
	}

	close(gate)
	for _, id := range admitted {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := waitTerminal(t, j); st != StatePassed {
			t.Errorf("job %s: %s, want PASSED", id, st)
		}
	}
}

// Open refuses a TenantWeights key that no job's tenant can match (the
// empty name, one with a space): that weight would never apply, and the
// tenant it was meant for would run at weight 1.
func TestOpenRefusesBadTenantWeight(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, name := range []string{"", "alice ", "a/b", strings.Repeat("x", 65)} {
		cfg := testConfig()
		cfg.TenantWeights = map[string]int{"bob": 2, name: 3}
		if s, err := Open(cfg); err == nil {
			s.Close()
			t.Errorf("tenant weight for %q: Open succeeded, want an error", name)
		}
	}
	cfg := testConfig()
	cfg.TenantWeights = map[string]int{"bob": 2, "a.b_c-9": 3}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("valid tenant weights refused: %v", err)
	}
	s.Close()
}

// TestTenantFairness holds the starvation guarantee: a heavy tenant that
// floods the queue can neither starve a light tenant's dequeue (WRR) nor
// hold every worker (per-tenant running cap).
func TestTenantFairness(t *testing.T) {
	defer testutil.NoLeaks(t)()

	t.Run("wrr dequeue", func(t *testing.T) {
		cfg := testConfig()
		cfg.QueueDepth = 32
		cfg.Concurrency = 1
		cfg.Runner = func(ctx context.Context, sp Spec, _ *trace.Recorder) (phihpl.SolveResult, error) {
			select {
			case <-time.After(10 * time.Millisecond):
			case <-ctx.Done():
				return phihpl.SolveResult{}, ctx.Err()
			}
			return phihpl.SolveResult{N: sp.N, Passed: true, Residual: 1e-3}, nil
		}
		s := New(cfg)
		defer s.Close()

		var heavy []*job
		for i := 0; i < 8; i++ {
			heavy = append(heavy, mustSubmit(t, s, JobSpec{Tenant: "heavy", N: 64, Seed: uint64(i + 1)}))
		}
		light := mustSubmit(t, s, JobSpec{Tenant: "light", N: 64, Seed: 100})
		if st := waitTerminal(t, light); st != StatePassed {
			t.Fatalf("light job: %s", st)
		}
		done := 0
		for _, h := range heavy {
			if h.currentState().Terminal() {
				done++
			}
		}
		// With one worker and round-robin credits the light job runs after
		// at most the in-flight heavy job plus one more.
		if done > 2 {
			t.Errorf("light tenant waited behind %d heavy jobs; starvation", done)
		}
	})

	t.Run("running cap", func(t *testing.T) {
		heavyGate := make(chan struct{})
		lightGate := make(chan struct{})
		cfg := testConfig()
		cfg.Concurrency = 2
		cfg.TenantCap = 1
		cfg.Runner = func(ctx context.Context, sp Spec, _ *trace.Recorder) (phihpl.SolveResult, error) {
			g := heavyGate
			if sp.Tenant == "light" {
				g = lightGate
			}
			select {
			case <-g:
				return phihpl.SolveResult{N: sp.N, Passed: true, Residual: 1e-3}, nil
			case <-ctx.Done():
				return phihpl.SolveResult{}, ctx.Err()
			}
		}
		s := New(cfg)
		defer s.Close()

		h1 := mustSubmit(t, s, JobSpec{Tenant: "heavy", N: 64, Seed: 1})
		h2 := mustSubmit(t, s, JobSpec{Tenant: "heavy", N: 64, Seed: 2})
		waitState(t, h1, StateRunning)
		// The cap (1) keeps the second heavy job queued even with a free
		// worker...
		time.Sleep(20 * time.Millisecond)
		if st := h2.currentState(); st != StateQueued {
			t.Fatalf("second heavy job is %s; per-tenant cap not enforced", st)
		}
		// ...and the light tenant takes that worker immediately.
		l := mustSubmit(t, s, JobSpec{Tenant: "light", N: 64, Seed: 3})
		waitState(t, l, StateRunning)
		close(lightGate)
		if st := waitTerminal(t, l); st != StatePassed {
			t.Fatalf("light job: %s", st)
		}
		close(heavyGate)
		waitTerminal(t, h1)
		waitTerminal(t, h2)
	})
}

// TestDrainMidJob exercises the SIGTERM state machine: admission stops,
// queued jobs abort immediately, the running job is cancelled at the
// drain deadline, readiness flips, and the server quiesces with no leaks.
func TestDrainMidJob(t *testing.T) {
	defer testutil.NoLeaks(t)()
	cfg := testConfig()
	cfg.Concurrency = 1
	cfg.Runner = gatedRunner(make(chan struct{})) // never opens: only ctx ends it
	s := New(cfg)

	running := mustSubmit(t, s, JobSpec{Tenant: "a", N: 64, Seed: 1})
	waitState(t, running, StateRunning)
	queued := mustSubmit(t, s, JobSpec{Tenant: "a", N: 64, Seed: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("drain took %s; want prompt cancellation after the 100ms budget", d)
	}
	if s.Ready() {
		t.Error("server still ready after drain")
	}
	if st := queued.currentState(); st != StateAborted {
		t.Errorf("queued job: %s, want ABORTED", st)
	}
	if st := running.currentState(); st != StateAborted {
		t.Errorf("running job: %s, want ABORTED", st)
	}
	if _, ae := s.Submit(JobSpec{N: 64}); ae == nil || ae.status != 503 {
		t.Errorf("post-drain submit: %+v, want 503", ae)
	}
	if v := s.Registry().Counter("server.jobs_aborted").Value(); v != 2 {
		t.Errorf("jobs_aborted = %d, want 2", v)
	}
}

// TestSingleFlightCache floods the server with concurrent identical
// requests: exactly one solve runs, everyone gets the identical PASSED
// result, and the hit/join counters account for the other 99.
func TestSingleFlightCache(t *testing.T) {
	defer testutil.NoLeaks(t)()
	var calls atomic.Int64
	cfg := testConfig()
	cfg.QueueDepth = 4 // followers must not consume queue slots
	cfg.Runner = func(ctx context.Context, sp Spec, _ *trace.Recorder) (phihpl.SolveResult, error) {
		calls.Add(1)
		select {
		case <-time.After(30 * time.Millisecond):
		case <-ctx.Done():
			return phihpl.SolveResult{}, ctx.Err()
		}
		return phihpl.SolveResult{N: sp.N, Passed: true, Residual: 4.2e-3}, nil
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 100
	body := `{"mode":"native","n":128,"nb":32,"seed":7}`
	ids := make([]string, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			var jv JobView
			if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
				errs <- err
				return
			}
			ids[i] = jv.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := waitTerminal(t, j); st != StatePassed {
			t.Fatalf("job %s: %s, want PASSED", id, st)
		}
		v := j.view()
		if v.Result == nil || v.Result.Residual != 4.2e-3 {
			t.Fatalf("job %s: result %+v, want the leader's exact residual", id, v.Result)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("runner ran %d times for %d identical requests, want 1", got, clients)
	}
	reg := s.Registry()
	hits := reg.Counter("server.cache_hits").Value()
	joins := reg.Counter("server.cache_inflight_joins").Value()
	if hits+joins != clients-1 {
		t.Errorf("cache hits(%d) + joins(%d) = %d, want %d", hits, joins, hits+joins, clients-1)
	}

	// A later identical submission is a pure cache hit: 200, terminal,
	// flagged cached, still exactly one solve.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cache-hit status = %d, want 200", resp.StatusCode)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	if jv.State != StatePassed || !jv.Cached {
		t.Errorf("cache-hit view = %+v, want PASSED+cached", jv)
	}
	if calls.Load() != 1 {
		t.Errorf("cache hit re-ran the solve (%d calls)", calls.Load())
	}
}

// TestRetryBudget drives the transient-error policy: typed ErrTimeout
// failures are retried with backoff until they succeed or the budget is
// exhausted; deterministic failures are not retried.
func TestRetryBudget(t *testing.T) {
	defer testutil.NoLeaks(t)()

	t.Run("recovers", func(t *testing.T) {
		var calls atomic.Int64
		cfg := testConfig()
		cfg.Runner = func(ctx context.Context, sp Spec, _ *trace.Recorder) (phihpl.SolveResult, error) {
			if calls.Add(1) <= 2 {
				return phihpl.SolveResult{}, fmt.Errorf("broadcast stage: %w", cluster.ErrTimeout)
			}
			return phihpl.SolveResult{N: sp.N, Passed: true, Residual: 1e-3}, nil
		}
		s := New(cfg)
		defer s.Close()
		five := 5
		j := mustSubmit(t, s, JobSpec{N: 64, MaxRetries: &five})
		if st := waitTerminal(t, j); st != StatePassed {
			t.Fatalf("job: %s, want PASSED after retries", st)
		}
		if v := j.view(); v.Attempts != 3 {
			t.Errorf("attempts = %d, want 3", v.Attempts)
		}
		if got := s.Registry().Counter("server.retries").Value(); got != 2 {
			t.Errorf("retries = %d, want 2", got)
		}
	})

	t.Run("budget exhausted", func(t *testing.T) {
		var calls atomic.Int64
		cfg := testConfig()
		cfg.Runner = func(context.Context, Spec, *trace.Recorder) (phihpl.SolveResult, error) {
			calls.Add(1)
			return phihpl.SolveResult{}, fmt.Errorf("ack: %w", cluster.ErrTimeout)
		}
		s := New(cfg)
		defer s.Close()
		two := 2
		j := mustSubmit(t, s, JobSpec{N: 64, MaxRetries: &two})
		if st := waitTerminal(t, j); st != StateFailed {
			t.Fatalf("job: %s, want FAILED", st)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("attempts = %d, want 1 + 2 retries", got)
		}
		v := j.view()
		if v.Error == nil || v.Error.Kind != "timeout" || !v.Error.Transient {
			t.Errorf("error = %+v, want transient timeout", v.Error)
		}
	})

	t.Run("deterministic failure not retried", func(t *testing.T) {
		var calls atomic.Int64
		cfg := testConfig()
		cfg.Runner = func(context.Context, Spec, *trace.Recorder) (phihpl.SolveResult, error) {
			calls.Add(1)
			return phihpl.SolveResult{}, &phihpl.SingularError{Col: 17}
		}
		s := New(cfg)
		defer s.Close()
		five := 5
		j := mustSubmit(t, s, JobSpec{N: 64, MaxRetries: &five})
		if st := waitTerminal(t, j); st != StateFailed {
			t.Fatalf("job: %s, want FAILED", st)
		}
		if calls.Load() != 1 {
			t.Errorf("singular matrix retried %d times; deterministic errors must not burn budget", calls.Load()-1)
		}
		if v := j.view(); v.Error == nil || v.Error.Kind != "singular" || v.Error.Column == nil || *v.Error.Column != 17 {
			t.Errorf("error = %+v, want singular col 17", v.Error)
		}
	})
}

// TestStreamEvents reads the SSE progress stream: history replay, live
// progress ticks while running, and the terminal done event.
func TestStreamEvents(t *testing.T) {
	defer testutil.NoLeaks(t)()
	gate := make(chan struct{})
	cfg := testConfig()
	cfg.Runner = gatedRunner(gate)
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := mustSubmit(t, s, JobSpec{N: 64, Seed: 1})
	waitState(t, j, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}

	go func() {
		time.Sleep(50 * time.Millisecond) // let progress ticks accumulate
		close(gate)
	}()

	var types []string
	var last Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		types = append(types, e.Type)
		last = e
		if e.Type == "done" {
			break
		}
	}
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "state") {
		t.Errorf("stream %v missing state events", types)
	}
	if !strings.Contains(joined, "progress") {
		t.Errorf("stream %v missing progress ticks", types)
	}
	if last.Type != "done" || last.State != StatePassed {
		t.Errorf("terminal event = %+v, want done/PASSED", last)
	}
}

// TestPanicIsolation: a panicking solve yields a FAILED job with the
// typed panic payload; the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	defer testutil.NoLeaks(t)()
	cfg := testConfig()
	cfg.Runner = func(ctx context.Context, sp Spec, rec *trace.Recorder) (phihpl.SolveResult, error) {
		if sp.Seed == 666 {
			panic("solver exploded: tile 42")
		}
		return passRunner(ctx, sp, rec)
	}
	s := New(cfg)
	defer s.Close()

	bad := mustSubmit(t, s, JobSpec{N: 64, Seed: 666})
	if st := waitTerminal(t, bad); st != StateFailed {
		t.Fatalf("panicking job: %s, want FAILED", st)
	}
	v := bad.view()
	if v.Error == nil || v.Error.Kind != "panic" || v.Error.Panic == nil {
		t.Fatalf("error = %+v, want typed panic", v.Error)
	}
	if v.Error.Panic.Value != "solver exploded: tile 42" {
		t.Errorf("panic value %q mangled", v.Error.Panic.Value)
	}
	if v.Error.Panic.Stack == "" {
		t.Error("panic stack lost")
	}
	if got := s.Registry().Counter("server.contained_panics").Value(); got != 1 {
		t.Errorf("contained_panics = %d, want 1", got)
	}

	// The server survived: the next job runs normally.
	ok := mustSubmit(t, s, JobSpec{N: 64, Seed: 1})
	if st := waitTerminal(t, ok); st != StatePassed {
		t.Errorf("post-panic job: %s, want PASSED", st)
	}
}

// TestRealSolves drives the default runner through the facade for every
// mode the API accepts, end to end over HTTP.
func TestRealSolves(t *testing.T) {
	defer testutil.NoLeaks(t)()
	cfg := testConfig()
	cfg.Concurrency = 2
	cfg.TenantCap = 2
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		`{"mode":"native","n":64,"nb":16,"workers":2,"seed":1}`,
		`{"mode":"native","n":96,"nb":16,"workers":2,"seed":2,"precision":"mixed"}`,
		`{"mode":"dist2d","n":48,"nb":16,"p":2,"q":2,"seed":3}`,
		`{"mode":"dist2d","n":64,"nb":16,"p":2,"q":2,"seed":5,"precision":"mixed"}`,
		`{"mode":"hybrid2d","n":64,"nb":16,"p":2,"q":2,"seed":6,"precision":"mixed"}`,
		`{"mode":"ft","n":48,"nb":16,"p":2,"q":2,"seed":4,"faults":"seed=9;drop=0.05"}`,
	}
	var ids []string
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jv JobView
		err = json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		ids = append(ids, jv.ID)
	}
	for i, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := waitTerminal(t, j); st != StatePassed {
			t.Fatalf("case %d (%s): %s, want PASSED: %+v", i, cases[i], st, j.view().Error)
		}
		v := j.view()
		if v.Result == nil || !v.Result.Passed || v.Result.Residual <= 0 {
			t.Errorf("case %d: result %+v, want a real residual verdict", i, v.Result)
		}
	}
	// The mixed job reports its refinement record through the API.
	var mixedSeen bool
	for _, jv := range s.Jobs() {
		if jv.Result != nil && jv.Result.Refine != nil {
			mixedSeen = true
		}
	}
	if !mixedSeen {
		t.Error("no job carried a mixed-precision refine report")
	}
}

// TestHealthEndpoints covers /healthz, /readyz and /metrics plumbing.
func TestHealthEndpoints(t *testing.T) {
	defer testutil.NoLeaks(t)()
	cfg := testConfig()
	cfg.Runner = passRunner
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	if resp, _ := get("/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 200 {
		t.Errorf("readyz: %d", resp.StatusCode)
	}
	j := mustSubmit(t, s, JobSpec{N: 64})
	waitTerminal(t, j)
	if resp, body := get("/metrics"); resp.StatusCode != 200 || !strings.Contains(body, "server.jobs_passed") {
		t.Errorf("metrics JSON: %d %q", resp.StatusCode, body)
	}
	if _, body := get("/metrics?format=text"); !strings.Contains(body, "server.submitted") {
		t.Errorf("metrics text missing counters: %q", body)
	}
	if resp, _ := get("/v1/jobs/nope"); resp.StatusCode != 404 {
		t.Errorf("missing job: %d, want 404", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz after drain: %d, want 200 (process alive)", resp.StatusCode)
	}
}
