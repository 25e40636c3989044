package phihpl

import (
	"context"
	"errors"
	"testing"
	"time"

	"phihpl/internal/testutil"
)

// The facade's cancellation contract: an already-cancelled context returns
// promptly with context.Canceled from every mode, leaking no goroutines and
// doing no work. The subtests keep the names of the entry points each Spec
// replaced.
func TestFacadeCtxAlreadyCancelled(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		solve func() (SolveResult, error)
	}{
		{"SolveContext", func() (SolveResult, error) {
			return Run(ctx, Spec{N: 96, NB: 16, Workers: 2, Seed: 1}, nil)
		}},
		{"native mixed", func() (SolveResult, error) {
			return Run(ctx, Spec{N: 96, NB: 16, Workers: 2, Seed: 1, Precision: PrecisionMixed}, nil)
		}},
		{"SolveDistributedCtx", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeDist2D, N: 64, NB: 16, P: 1, Q: 2, Seed: 1}, nil)
		}},
		{"SolveDistributed2DCtx", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeDist2D, N: 64, NB: 16, P: 2, Q: 2, Seed: 1}, nil)
		}},
		{"SolveHybrid2DCtx", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeHybrid2D, N: 64, NB: 16, P: 2, Q: 2, Seed: 1}, nil)
		}},
		{"SolveFaultTolerant2DCtx", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeFT, N: 64, NB: 16, P: 2, Q: 2, Seed: 1}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.solve(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// Every mode, native mixed included, reports the timed phase, which the
// solve server prices a job with: more than nothing, less than the whole
// call, which also generates A and checks the residual.
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
		{"native sequential", func() (SolveResult, error) {
			return Run(ctx, Spec{N: 64, NB: 16, Workers: 2, Seed: 1, Scheduler: Sequential}, nil)
		}},
		{"native fp64", func() (SolveResult, error) {
			return Run(ctx, Spec{N: 64, NB: 16, Workers: 2, Seed: 1, Precision: PrecisionFP64}, nil)
		}},
		{"native mixed", func() (SolveResult, error) {
			return Run(ctx, Spec{N: 64, NB: 16, Workers: 2, Seed: 1, Precision: PrecisionMixed}, nil)
		}},
		{"dist2d", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeDist2D, N: 64, NB: 16, P: 2, Q: 2, Seed: 1}, nil)
		}},
		{"dist2d basic", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeDist2D, N: 64, NB: 16, P: 2, Q: 2, Seed: 1, Lookahead: LookaheadBasic}, nil)
		}},
		{"hybrid2d", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeHybrid2D, N: 64, NB: 16, P: 2, Q: 2, Seed: 1}, nil)
		}},
		{"hybrid2d none", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeHybrid2D, N: 64, NB: 16, P: 2, Q: 2, Seed: 1, Lookahead: LookaheadNone}, nil)
		}},
		{"ft", func() (SolveResult, error) {
			return Run(ctx, Spec{Mode: ModeFT, N: 64, NB: 16, P: 2, Q: 2, Seed: 1}, nil)
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

// A completed Run under a context matches Solve bitwise for every
// scheduler.
func TestSolveContextMatchesSolve(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, s := range []Scheduler{Sequential, StaticLookahead, DynamicDAG} {
		want, err := Solve(96, s, 16, 3, 7)
		if err != nil {
			t.Fatalf("scheduler %v: %v", s, err)
		}
		got, err := Run(context.Background(), Spec{N: 96, NB: 16, Workers: 3, Seed: 7, Scheduler: s}, nil)
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

// Run refuses, before any work, every combination no solver implements —
// each wraps ErrUnsupported — and a non-positive n, P or Q; the zero Spec
// with only N set is a native solve.
func TestRunRefusesUnsupported(t *testing.T) {
	defer testutil.NoLeaks(t)()
	plan, err := ParseFaultPlan("seed=1;drop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	grid := func(m Mode) Spec { return Spec{Mode: m, N: 32, NB: 8, P: 2, Q: 2, Seed: 1} }
	withPlan := func(sp Spec) Spec { sp.FT.Plan = plan; return sp }
	withPrec := func(sp Spec) Spec { sp.Precision = PrecisionMixed; return sp }
	for _, tc := range []struct {
		name        string
		sp          Spec
		unsupported bool
	}{
		{"ft+mixed", withPrec(grid(ModeFT)), true},
		{"ft+offload", withPlan(grid(ModeHybrid2D)), true},
		{"plan on dist2d", withPlan(grid(ModeDist2D)), true},
		{"plan on native", withPlan(Spec{N: 32}), true},
		{"unknown mode", grid("quantum"), true},
		{"n=0 native", Spec{}, false},
		{"n=0 grid", Spec{Mode: ModeDist2D, P: 1, Q: 1}, false},
		{"P=0", Spec{Mode: ModeDist2D, N: 32, Q: 2}, false},
		{"Q=0", Spec{Mode: ModeFT, N: 32, P: 2}, false},
	} {
		verr := tc.sp.Validate()
		_, rerr := Run(context.Background(), tc.sp, nil)
		if verr == nil || rerr == nil || rerr.Error() != verr.Error() {
			t.Errorf("%s: Validate = %v, Run = %v; want the same refusal", tc.name, verr, rerr)
			continue
		}
		if got := errors.Is(verr, ErrUnsupported); got != tc.unsupported {
			t.Errorf("%s: errors.Is(%v, ErrUnsupported) = %v, want %v", tc.name, verr, got, tc.unsupported)
		}
	}
	if r, err := Run(context.Background(), Spec{N: 32}, nil); err != nil || !r.Passed {
		t.Errorf("zero Spec with N=32: %v passed=%v, want a passing native solve", err, r.Passed)
	}
}
