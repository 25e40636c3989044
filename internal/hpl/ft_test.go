package hpl

import (
	"context"
	"errors"
	"testing"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/fault"
	"phihpl/internal/matrix"
	"phihpl/internal/testutil"
)

// runFTWithDeadline runs g, which sets FT, and fails the test if it hangs
// — the acceptance bar is "typed error or PASS within the deadline, never
// a wedge".
func runFTWithDeadline(t *testing.T, g Grid) (DistResult, error) {
	t.Helper()
	type out struct {
		r   DistResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		r, err := Solve(context.Background(), g, nil)
		ch <- out{r, err}
	}()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-time.After(2 * time.Minute):
		t.Fatal("fault-tolerant solve hung past the deadline")
		return DistResult{}, nil
	}
}

func TestFTCleanPathBitwiseIdentical(t *testing.T) {
	defer testutil.NoLeaks(t)()
	n, nb := 72, 12
	a, b := matrix.RandomSystem(n, 17)
	lu := a.Clone()
	piv := make([]int, n)
	if err := blas.Dgetrf(lu, piv, nb); err != nil {
		t.Fatal(err)
	}
	want := blas.LUSolve(lu, piv, b)

	for _, grid := range [][2]int{{1, 1}, {2, 2}, {2, 3}} {
		r, err := Solve(context.Background(), Grid{N: n, NB: nb, P: grid[0], Q: grid[1], Seed: 17, FT: &FTConfig{}}, nil)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		for i := range want {
			if r.X[i] != want[i] {
				t.Fatalf("grid %v: x[%d] = %v, want %v (bitwise)", grid, i, r.X[i], want[i])
			}
		}
		if r.FT == nil || r.FT.Restarts != 0 {
			t.Errorf("grid %v: clean run restarted: %+v", grid, r.FT)
		}
	}
}

// TestFTChaosSuite drives the solver through deterministic fault plans.
// Every case must converge to a passing residual after transparent
// recovery — no hangs, no process-killing panics.
func TestFTChaosSuite(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const n, nb, p, q = 96, 16, 2, 2
	cases := []struct {
		name string
		spec string
	}{
		{"drop", "seed=11;drop=0.05"},
		{"dup", "seed=12;dup=0.08"},
		{"delay", "seed=13;delay=0.08:500us"},
		{"corrupt", "seed=14;corrupt=0.04"},
		{"crash-rollback", "crash=1@2"},
		{"stall-short", "stall=2@1:50ms"},
		{"scrub-abft", "scrub=3@1"},
		{"drop-dup-corrupt", "seed=15;drop=0.03;dup=0.03;corrupt=0.02"},
		{"crash-under-loss", "seed=16;drop=0.03;crash=2@3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runFTWithDeadline(t, Grid{N: n, NB: nb, P: p, Q: q, Seed: 7, FT: &FTConfig{
				Plan: plan, Timeout: 2 * time.Second, CheckpointEvery: 2, MaxRestarts: 3,
			}})
			if err != nil {
				t.Fatalf("plan %q: %v", tc.spec, err)
			}
			if r.Residual > matrix.ResidualThreshold {
				t.Errorf("plan %q: residual %g FAILED", tc.spec, r.Residual)
			}
			if r.FT == nil {
				t.Fatal("missing FT stats")
			}
		})
	}
}

func TestFTCrashRollsBackToCheckpoint(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.RankEvent{{Rank: 1, Iter: 3}}}
	r, err := runFTWithDeadline(t, Grid{N: 96, NB: 16, P: 2, Q: 2, Seed: 7, FT: &FTConfig{
		Plan: plan, CheckpointEvery: 2, MaxRestarts: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Residual > matrix.ResidualThreshold {
		t.Errorf("residual %g FAILED after rollback", r.Residual)
	}
	if r.FT.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", r.FT.Restarts)
	}
	if r.FT.Checkpoints == 0 {
		t.Error("crash at iter 3 should have a stage-2 checkpoint to roll back to")
	}
	if r.FT.Faults.Crashes != 1 {
		t.Errorf("crash fired %d times, want 1 (one-shot)", r.FT.Faults.Crashes)
	}
}

func TestFTScrubIsReconstructed(t *testing.T) {
	plan := &fault.Plan{Scrubs: []fault.RankEvent{{Rank: 3, Iter: 1}}}
	r, err := runFTWithDeadline(t, Grid{N: 96, NB: 16, P: 2, Q: 2, Seed: 7, FT: &FTConfig{
		Plan: plan, CheckpointEvery: 2, MaxRestarts: 0,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Residual > matrix.ResidualThreshold {
		t.Errorf("residual %g FAILED: corruption not repaired", r.Residual)
	}
	if r.FT.Reconstructions == 0 {
		t.Error("scrubbed block must be reconstructed from the ABFT checksums")
	}
	if r.FT.Restarts != 0 {
		t.Errorf("ABFT repair should be forward recovery, not rollback (restarts=%d)", r.FT.Restarts)
	}
}

func TestFTLongStallTimesOutAndRecovers(t *testing.T) {
	// The stall exceeds the timeout: peers see ErrTimeout, the world
	// aborts and the driver restarts. One-shot, so attempt 2 passes.
	plan := &fault.Plan{Stalls: []fault.StallEvent{{Rank: 2, Iter: 1, Dur: 30 * time.Second}}}
	r, err := runFTWithDeadline(t, Grid{N: 64, NB: 16, P: 2, Q: 2, Seed: 7, FT: &FTConfig{
		Plan: plan, Timeout: 250 * time.Millisecond, CheckpointEvery: 2, MaxRestarts: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Residual > matrix.ResidualThreshold {
		t.Errorf("residual %g FAILED", r.Residual)
	}
	if r.FT.Restarts == 0 {
		t.Error("a stall longer than the timeout must force a restart")
	}
}

func TestFTUnrecoverableReturnsFaultError(t *testing.T) {
	defer testutil.NoLeaks(t)()
	// Rank 1 crashes on every attempt; MaxRestarts=2 gives up after the
	// third try with a structured report.
	plan := &fault.Plan{Crashes: []fault.RankEvent{
		{Rank: 1, Iter: 0}, {Rank: 1, Iter: 1}, {Rank: 1, Iter: 2}, {Rank: 1, Iter: 3},
	}}
	_, err := runFTWithDeadline(t, Grid{N: 96, NB: 16, P: 2, Q: 2, Seed: 7, FT: &FTConfig{
		Plan: plan, CheckpointEvery: 2, MaxRestarts: 2,
	}})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2", fe.Restarts)
	}
	if fe.Iter != 2 {
		t.Errorf("Iter = %d, want 2 (furthest iteration reached)", fe.Iter)
	}
	if !errors.Is(err, fault.ErrInjectedCrash) {
		t.Errorf("cause lost from the chain: %v", err)
	}
	if !errors.Is(err, cluster.ErrRankFailed) && !errors.Is(err, cluster.ErrAborted) {
		t.Errorf("peer failures lost from the chain: %v", err)
	}
	if len(fe.Profile) == 0 {
		t.Error("final attempt's per-iteration profile missing")
	}
}

// TestFTFaultErrorIterIgnoresRanksAhead pins the interleaving that made
// TestFTUnrecoverableReturnsFaultError flaky: on the final attempt rank 1
// crashes entering stage 2, and the ranks of process column 0, which need
// nothing from column 1 to finish stage 2, run on into stage 3 before the
// abort reaches them. Rank 1's crash is held until they have; Iter must
// still name the stage of the crash.
func TestFTFaultErrorIterIgnoresRanksAhead(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ahead := make(chan int, 2)
	var seen [4]bool // per rank, written only by that rank's goroutines
	testHookSuperStep = func(rank, k int) {
		switch {
		case k == 3 && rank%2 == 0 && !seen[rank]:
			// Ranks 0 and 2 form process column 0 of the 2×2 grid.
			seen[rank] = true
			ahead <- rank
		case k == 2 && rank == 1 && !seen[rank]:
			// Only the final attempt gets rank 1 to stage 2.
			seen[rank] = true
			for range 2 {
				select {
				case <-ahead:
				case <-time.After(time.Second):
					t.Error("process column 0 never reached stage 3")
					return
				}
			}
		}
	}
	defer func() { testHookSuperStep = nil }()
	plan := &fault.Plan{Crashes: []fault.RankEvent{
		{Rank: 1, Iter: 0}, {Rank: 1, Iter: 1}, {Rank: 1, Iter: 2}, {Rank: 1, Iter: 3},
	}}
	_, err := runFTWithDeadline(t, Grid{N: 96, NB: 16, P: 2, Q: 2, Seed: 7, FT: &FTConfig{
		Plan: plan, CheckpointEvery: 2, MaxRestarts: 2,
	}})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Iter != 2 {
		t.Errorf("Iter = %d, want 2, the stage of rank 1's crash", fe.Iter)
	}
}

func TestFTGridShapes(t *testing.T) {
	// Recovery must not depend on the grid: run a lossy plan over several
	// shapes, including single-row/-column grids and ragged blocks.
	for _, tc := range []struct{ n, nb, p, q int }{
		{60, 16, 1, 1},
		{60, 16, 4, 1},
		{60, 16, 1, 4},
		{75, 10, 2, 2}, // ragged final blocks
	} {
		plan := &fault.Plan{Seed: 21, Drop: 0.03, Dup: 0.02}
		r, err := runFTWithDeadline(t, Grid{N: tc.n, NB: tc.nb, P: tc.p, Q: tc.q, Seed: 9, FT: &FTConfig{
			Plan: plan, CheckpointEvery: 2, MaxRestarts: 2,
		}})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if r.Residual > matrix.ResidualThreshold {
			t.Errorf("%+v: residual %g FAILED", tc, r.Residual)
		}
	}
}
