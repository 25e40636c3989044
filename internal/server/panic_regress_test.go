package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"phihpl"
	"phihpl/internal/pool"
	"phihpl/internal/testutil"
	"phihpl/internal/trace"
)

// TestPanicErrorSurvivesFacadeJSON is the regression test for the panic
// error contract: a panic contained by the pool's recover barrier — the
// same barrier every facade solve (phihpl.Run, every mode) relies on —
// must carry its value and stack unchanged through the facade's type
// re-export, the server's error wrapping, and the JSON serialization a
// client sees.
func TestPanicErrorSurvivesFacadeJSON(t *testing.T) {
	defer testutil.NoLeaks(t)()

	const boom = "boom #42 ☠ (unique sentinel)"
	// Mint a real *pool.PanicError: a panicking job inside a parallel
	// region, exactly how a panic inside a solve reaches phihpl.Run.
	err := pool.DoCtx(context.Background(), 4, 2, func(i int) {
		if i == 1 {
			panic(boom)
		}
	})
	if err == nil {
		t.Fatal("pool.DoCtx swallowed the panic")
	}

	// Facade passthrough: phihpl.PanicError is the same type, and
	// errors.As sees it through arbitrary fmt wrapping.
	var pe *phihpl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("errors.As(*phihpl.PanicError) failed on %T", err)
	}
	if fmt.Sprint(pe.Value) != boom {
		t.Fatalf("panic value mangled before serialization: %q", pe.Value)
	}
	if !strings.Contains(pe.Stack, "panic_regress_test") {
		t.Fatalf("stack does not point at the panic site:\n%s", pe.Stack)
	}
	wrapped := fmt.Errorf("job j-1 attempt 1: %w", err)

	// Server-side serialization: encodeError → JSON → decode must be
	// byte-preserving for both the value and the stack.
	info := encodeError(wrapped)
	if info.Kind != "panic" || info.Panic == nil {
		t.Fatalf("encodeError = %+v, want kind=panic", info)
	}
	b, err2 := json.Marshal(info)
	if err2 != nil {
		t.Fatal(err2)
	}
	var decoded ErrorInfo
	if err2 := json.Unmarshal(b, &decoded); err2 != nil {
		t.Fatal(err2)
	}
	if decoded.Panic.Value != fmt.Sprint(pe.Value) {
		t.Errorf("panic value changed across JSON: %q != %q", decoded.Panic.Value, pe.Value)
	}
	if decoded.Panic.Stack != pe.Stack {
		t.Errorf("panic stack changed across JSON (%d bytes -> %d bytes)", len(pe.Stack), len(decoded.Panic.Stack))
	}
	if decoded.Panic.Worker != pe.Worker {
		t.Errorf("panic worker changed across JSON: %d != %d", decoded.Panic.Worker, pe.Worker)
	}
}

// TestPanicErrorEndToEndHTTP submits a job whose solve panics inside a
// real pool region and asserts the client-visible JSON carries the exact
// panic value and the pool's captured stack — and that the server is
// still alive to say so.
func TestPanicErrorEndToEndHTTP(t *testing.T) {
	defer testutil.NoLeaks(t)()

	const boom = "chaos-monkey panic @ stage 3"
	var minted *pool.PanicError
	cfg := testConfig()
	cfg.Runner = func(ctx context.Context, sp Spec, rec *trace.Recorder) (phihpl.SolveResult, error) {
		err := pool.DoCtx(ctx, 2, 2, func(i int) {
			if i == 0 {
				panic(boom)
			}
		})
		var pe *pool.PanicError
		if errors.As(err, &pe) {
			minted = pe
		}
		return phihpl.SolveResult{}, err
	}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"mode":"native","n":64,"seed":12}`))
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	err = json.NewDecoder(resp.Body).Decode(&jv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(jv.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if st := waitTerminal(t, j); st != StateFailed {
		t.Fatalf("job: %s, want FAILED", st)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final JobView
	err = json.NewDecoder(resp.Body).Decode(&final)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final.Error == nil || final.Error.Kind != "panic" || final.Error.Panic == nil {
		t.Fatalf("error = %+v, want typed panic", final.Error)
	}
	if minted == nil {
		t.Fatal("runner never observed the minted PanicError")
	}
	if final.Error.Panic.Value != fmt.Sprint(minted.Value) {
		t.Errorf("value over HTTP %q != minted %q", final.Error.Panic.Value, minted.Value)
	}
	if final.Error.Panic.Stack != minted.Stack {
		t.Errorf("stack over HTTP (%d bytes) != minted (%d bytes)",
			len(final.Error.Panic.Stack), len(minted.Stack))
	}
	if final.Error.Panic.Worker != minted.Worker {
		t.Errorf("worker over HTTP %d != minted %d", final.Error.Panic.Worker, minted.Worker)
	}
}
