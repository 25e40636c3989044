package hpl

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"phihpl/internal/fault"
	"phihpl/internal/matrix"
	"phihpl/internal/testutil"
)

func mustParsePlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return p
}

// countCtx cancels itself deterministically after its Err method has been
// consulted `after` times — scheduler-independent mid-run cancellation
// (rank stage boundaries all consult Err).
type countCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// Every distributed solver returns promptly with the plain context error
// when handed an already-cancelled context — no world is spun up, no
// goroutine leaks. The subtests keep the names of the entry points each
// Grid replaced.
func TestDistributedCtxAlreadyCancelled(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		solve func() (DistResult, error)
	}{
		{"SolveDistributedCtx", func() (DistResult, error) {
			return Solve(ctx, Grid{N: 64, NB: 16, P: 1, Q: 2, Seed: 1}, nil)
		}},
		{"SolveDistributed2DCtx", func() (DistResult, error) {
			return Solve(ctx, Grid{N: 64, NB: 16, P: 2, Q: 2, Seed: 1}, nil)
		}},
		{"SolveDistributed2DHybridCtx", func() (DistResult, error) {
			return Solve(ctx, Grid{N: 64, NB: 16, P: 2, Q: 2, Seed: 1, Offload: true}, nil)
		}},
		{"SolveDistributed2DFTCtx", func() (DistResult, error) {
			return Solve(ctx, Grid{N: 64, NB: 16, P: 2, Q: 2, Seed: 1, FT: &FTConfig{}}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.solve(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// Cancelling mid-run unwinds every rank at a stage boundary: the world
// drains (no leaked rank goroutines) and the caller sees the plain
// ctx.Err(), never a wrapped transport error from the unwinding fabric.
func TestDistributedCtxCancelMidRun(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, tc := range []struct {
		name  string
		solve func(ctx context.Context) (DistResult, error)
	}{
		{"SolveDistributedCtx", func(ctx context.Context) (DistResult, error) {
			return Solve(ctx, Grid{N: 96, NB: 8, P: 1, Q: 3, Seed: 5}, nil)
		}},
		{"SolveDistributed2DCtx", func(ctx context.Context) (DistResult, error) {
			return Solve(ctx, Grid{N: 96, NB: 8, P: 2, Q: 2, Seed: 5}, nil)
		}},
		{"SolveDistributed2DHybridCtx", func(ctx context.Context) (DistResult, error) {
			return Solve(ctx, Grid{N: 96, NB: 8, P: 2, Q: 2, Seed: 5, Offload: true}, nil)
		}},
		{"SolveDistributed2DFTCtx", func(ctx context.Context) (DistResult, error) {
			return Solve(ctx, Grid{N: 96, NB: 8, P: 2, Q: 2, Seed: 5, FT: &FTConfig{}}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Let a few stage-boundary checks pass, then cancel: some ranks
			// are mid-stage when the first one observes the cancellation.
			ctx := &countCtx{Context: context.Background(), after: 6}
			if _, err := tc.solve(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// A solve under a live, cancellable context that runs to completion is
// indistinguishable from one under context.Background() — bitwise for the
// deterministic drivers, residual-checked for the hybrid.
func TestDistributedCtxCompletedMatchesPlain(t *testing.T) {
	defer testutil.NoLeaks(t)()
	want, err := Solve(context.Background(), Grid{N: 64, NB: 16, P: 2, Q: 2, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Solve(ctx, Grid{N: 64, NB: 16, P: 2, Q: 2, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("solution length %d != %d", len(got.X), len(want.X))
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("solution differs at %d: %g vs %g", i, got.X[i], want.X[i])
		}
	}

	hr, err := Solve(ctx, Grid{N: 64, NB: 16, P: 2, Q: 2, Seed: 42, Offload: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Residual > matrix.ResidualThreshold {
		t.Errorf("hybrid ctx residual %g FAILED", hr.Residual)
	}
}

// Cancellation during a fault-tolerant run must not be misread as a fault:
// no restart is consumed and no *FaultError wraps the context error.
func TestFTCtxCancelIsNotAFault(t *testing.T) {
	defer testutil.NoLeaks(t)()
	plan := mustParsePlan(t, "crash=1@2")
	ctx := &countCtx{Context: context.Background(), after: 2}
	_, err := Solve(ctx, Grid{N: 96, NB: 8, P: 2, Q: 2, Seed: 5, FT: &FTConfig{Plan: plan, MaxRestarts: 3}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		t.Fatalf("cancellation came back wrapped in *FaultError: %v", fe)
	}
}
