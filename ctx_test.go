package phihpl

import (
	"context"
	"errors"
	"testing"
	"time"

	"phihpl/internal/testutil"
)

// The facade's cancellation contract: an already-cancelled context returns
// promptly with context.Canceled from every ctx entry point, leaking no
// goroutines and doing no work.
func TestFacadeCtxAlreadyCancelled(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		solve func() (SolveResult, error)
	}{
		{"SolveContext", func() (SolveResult, error) {
			return SolveContext(ctx, 96, DynamicDAG, 16, 2, 1)
		}},
		{"SolveDistributedCtx", func() (SolveResult, error) {
			return SolveDistributedCtx(ctx, 64, 16, 2, 1)
		}},
		{"SolveDistributed2DCtx", func() (SolveResult, error) {
			return SolveDistributed2DCtx(ctx, 64, 16, 2, 2, 1)
		}},
		{"SolveHybrid2DCtx", func() (SolveResult, error) {
			return SolveHybrid2DCtx(ctx, 64, 16, 2, 2, 1)
		}},
		{"SolveFaultTolerant2DCtx", func() (SolveResult, error) {
			return SolveFaultTolerant2DCtx(ctx, 64, 16, 2, 2, 1, FTConfig{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.solve(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// Every native FP64 and grid entry point reports the timed factor+solve
// phase, which the solve server prices a job with: more than nothing, less
// than the whole call, which also generates A and checks the residual.
func TestFacadeCtxReportsSeconds(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		solve func() (SolveResult, error)
	}{
		{"Solve", func() (SolveResult, error) {
			return Solve(64, DynamicDAG, 16, 2, 1)
		}},
		{"SolveContext", func() (SolveResult, error) {
			return SolveContext(ctx, 64, Sequential, 16, 2, 1)
		}},
		{"SolveMixedPrecisionCtx(fp64)", func() (SolveResult, error) {
			return SolveMixedPrecisionCtx(ctx, 64, PrecisionFP64, 16, 2, 1, nil)
		}},
		{"SolveDistributed2DCtx", func() (SolveResult, error) {
			return SolveDistributed2DCtx(ctx, 64, 16, 2, 2, 1)
		}},
		{"SolveDistributed2DModeCtx", func() (SolveResult, error) {
			return SolveDistributed2DModeCtx(ctx, 64, 16, 2, 2, 1, LookaheadBasic, nil)
		}},
		{"SolveHybrid2DCtx", func() (SolveResult, error) {
			return SolveHybrid2DCtx(ctx, 64, 16, 2, 2, 1)
		}},
		{"SolveHybrid2DModeCtx", func() (SolveResult, error) {
			return SolveHybrid2DModeCtx(ctx, 64, 16, 2, 2, 1, LookaheadNone, nil)
		}},
		{"SolveFaultTolerant2DCtx", func() (SolveResult, error) {
			return SolveFaultTolerant2DCtx(ctx, 64, 16, 2, 2, 1, FTConfig{})
		}},
	} {
		start := time.Now()
		r, err := tc.solve()
		wall := time.Since(start).Seconds()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !r.Passed || r.N != 64 {
			t.Errorf("%s: passed=%v N=%d, want a passing n=64 solve", tc.name, r.Passed, r.N)
		}
		if !(r.Seconds > 0 && r.Seconds < wall) {
			t.Errorf("%s: Seconds = %g, want the timed phase, in (0, %g)", tc.name, r.Seconds, wall)
		}
	}
}

// A completed SolveContext run matches Solve bitwise for every scheduler.
func TestSolveContextMatchesSolve(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, s := range []Scheduler{Sequential, StaticLookahead, DynamicDAG} {
		want, err := Solve(96, s, 16, 3, 7)
		if err != nil {
			t.Fatalf("scheduler %v: %v", s, err)
		}
		got, err := SolveContext(context.Background(), 96, s, 16, 3, 7)
		if err != nil {
			t.Fatalf("scheduler %v: %v", s, err)
		}
		if !got.Passed {
			t.Errorf("scheduler %v: residual %g", s, got.Residual)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("scheduler %v: solution differs at %d", s, i)
			}
		}
	}
}
