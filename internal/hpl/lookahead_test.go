package hpl

import (
	"context"
	"errors"
	"slices"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/fault"
	"phihpl/internal/matrix"
	"phihpl/internal/testutil"
)

var allModes = []LookaheadMode{LookaheadNone, LookaheadBasic, LookaheadPipelined}

// TestLookaheadModesBitwiseIdentical is the schedule-equivalence table:
// every look-ahead mode, on every grid shape (including ragged final
// blocks and degenerate 1×Q / P×1 grids), must reproduce the sequential
// blocked factorization bit for bit and pass the HPL residual check.
func TestLookaheadModesBitwiseIdentical(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, tc := range []struct{ n, nb, p, q int }{
		{48, 8, 1, 1},
		{48, 8, 2, 2},
		{64, 8, 3, 2},
		{64, 8, 2, 3},
		{60, 16, 1, 4},
		{60, 16, 4, 1},
		{75, 10, 2, 2}, // ragged final blocks
		{96, 16, 4, 4},
	} {
		a, b := matrix.RandomSystem(tc.n, 23)
		lu := a.Clone()
		piv := make([]int, tc.n)
		if err := blas.Dgetrf(lu, piv, tc.nb); err != nil {
			t.Fatal(err)
		}
		want := blas.LUSolve(lu, piv, b)

		for _, m := range allModes {
			r, err := Solve(context.Background(), Grid{N: tc.n, NB: tc.nb, P: tc.p, Q: tc.q, Seed: 23, Lookahead: m}, nil)
			if err != nil {
				t.Fatalf("%+v %s: %v", tc, m, err)
			}
			if r.Residual > matrix.ResidualThreshold {
				t.Errorf("%+v %s: residual %g FAILED", tc, m, r.Residual)
			}
			if r.Seconds <= 0 {
				t.Errorf("%+v %s: timed phase not reported (Seconds = %g)", tc, m, r.Seconds)
			}
			for i := range want {
				if r.X[i] != want[i] {
					t.Fatalf("%+v %s: x[%d] = %v, want %v (bitwise)", tc, m, i, r.X[i], want[i])
				}
			}
		}
	}
}

// The hybrid (offload-engine) driver makes the plain driver's
// micro-kernel calls, so every schedule's solution is bitwise the plain
// solver's and passes the residual.
func TestLookaheadModesHybridAgree(t *testing.T) {
	defer testutil.NoLeaks(t)()
	n, nb := 96, 16
	plain, err := Solve(context.Background(), Grid{N: n, NB: nb, P: 2, Q: 2, Seed: 31}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModes {
		hy, err := Solve(context.Background(), Grid{N: n, NB: nb, P: 2, Q: 2, Seed: 31, Lookahead: m, Offload: true}, nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if hy.Residual > matrix.ResidualThreshold {
			t.Errorf("%s: hybrid residual %g FAILED", m, hy.Residual)
		}
		if !slices.Equal(hy.X, plain.X) {
			t.Errorf("%s: hybrid X differs from the plain grid's", m)
		}
	}
}

// Cancelling mid-run under any schedule must drain the trailing-update
// pipeline along with the ranks: plain ctx.Err() out, no leaked
// goroutines.
func TestLookaheadPipelinedCtxCancelMidRun(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, m := range allModes {
		ctx := &countCtx{Context: context.Background(), after: 6}
		_, err := Solve(ctx, Grid{N: 96, NB: 8, P: 2, Q: 2, Seed: 5, Lookahead: m}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", m, err)
		}
	}
}

// A crash-and-rollback recovery under any schedule must land on the same
// bits as an undisturbed run: the FT hooks ride the end of every mode's
// stage.
func TestLookaheadPipelinedFTCrashRestart(t *testing.T) {
	defer testutil.NoLeaks(t)()
	clean, err := Solve(context.Background(), Grid{N: 96, NB: 16, P: 2, Q: 2, Seed: 7, Lookahead: LookaheadPipelined}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModes {
		plan := &fault.Plan{Crashes: []fault.RankEvent{{Rank: 1, Iter: 3}}}
		r, err := runFTWithDeadline(t, Grid{N: 96, NB: 16, P: 2, Q: 2, Seed: 7, Lookahead: m, FT: &FTConfig{
			Plan: plan, CheckpointEvery: 2, MaxRestarts: 2,
		}})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if r.FT.Restarts != 1 {
			t.Errorf("%s: Restarts = %d, want 1", m, r.FT.Restarts)
		}
		if r.Residual > matrix.ResidualThreshold {
			t.Errorf("%s: residual %g FAILED after rollback", m, r.Residual)
		}
		for i := range clean.X {
			if r.X[i] != clean.X[i] {
				t.Fatalf("%s: post-recovery solution differs at %d: %v vs %v", m, i, r.X[i], clean.X[i])
			}
		}
	}
}

// An ABFT scrub repair under any schedule is forward recovery: no
// restart, reconstruction from the checksum columns, residual intact.
func TestLookaheadPipelinedFTScrub(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, m := range allModes {
		plan := &fault.Plan{Scrubs: []fault.RankEvent{{Rank: 3, Iter: 1}}}
		r, err := runFTWithDeadline(t, Grid{N: 96, NB: 16, P: 2, Q: 2, Seed: 7, Lookahead: m, FT: &FTConfig{
			Plan: plan, CheckpointEvery: 2,
		}})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if r.Residual > matrix.ResidualThreshold {
			t.Errorf("%s: residual %g FAILED: corruption not repaired", m, r.Residual)
		}
		if r.FT.Reconstructions == 0 {
			t.Errorf("%s: scrubbed block must be reconstructed from the ABFT checksums", m)
		}
		if r.FT.Restarts != 0 {
			t.Errorf("%s: ABFT repair should be forward recovery, not rollback (restarts=%d)", m, r.FT.Restarts)
		}
	}
}

func TestParseLookaheadMode(t *testing.T) {
	for _, m := range allModes {
		got, err := ParseLookaheadMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseLookaheadMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseLookaheadMode("eager"); err == nil {
		t.Error("unknown mode must error")
	}
	if s := LookaheadMode(99).String(); s != "LookaheadMode(99)" {
		t.Errorf("out-of-range String() = %q", s)
	}
	// The zero value is the default (and fastest) schedule.
	var zero LookaheadMode
	if zero != LookaheadPipelined {
		t.Error("zero LookaheadMode must be LookaheadPipelined")
	}
}
