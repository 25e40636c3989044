package hpl

import (
	"context"
	"errors"
	"testing"

	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
	"phihpl/internal/offload"
	"phihpl/internal/trace"
)

// TestMixed2DResidualAndReport: the mixed 2D driver passes the HPL bar on
// every grid shape (including ragged final blocks) and reports the
// refinement phase — at least one FP64 correction, no fallback, and the
// report's residual agreeing with the result's.
func TestMixed2DResidualAndReport(t *testing.T) {
	for _, tc := range []struct{ n, nb, p, q int }{
		{48, 8, 1, 1},
		{48, 8, 2, 2},
		{64, 8, 2, 3},
		{64, 8, 3, 2},
		{60, 16, 1, 4},
		{60, 16, 4, 1},
		{75, 10, 2, 2}, // ragged final blocks
	} {
		r, err := Solve(context.Background(), Grid{N: tc.n, NB: tc.nb, P: tc.p, Q: tc.q, Seed: 99, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if r.Residual > matrix.ResidualThreshold {
			t.Errorf("%+v: residual %g FAILED", tc, r.Residual)
		}
		if r.Ranks != tc.p*tc.q {
			t.Errorf("%+v: ranks = %d", tc, r.Ranks)
		}
		if r.Refine == nil {
			t.Fatalf("%+v: mixed solve returned nil Refine report", tc)
		}
		if r.Refine.FellBack || r.Refine.Reason != lu.FallbackNone {
			t.Errorf("%+v: unexpected fallback: %+v", tc, r.Refine)
		}
		if r.Refine.Iterations < 1 {
			t.Errorf("%+v: %d refinement iterations, want >= 1", tc, r.Refine.Iterations)
		}
		if r.Refine.Residual != r.Residual {
			t.Errorf("%+v: report residual %g != result %g", tc, r.Refine.Residual, r.Residual)
		}
	}
}

// TestMixed2DMatchesSequentialMixed: the distributed mixed pipeline is the
// same arithmetic as the shared-memory HPL-MxP solver — identical FP32
// factors (Getf2 panels, Trsm, packed rank-k updates at the same block
// size) and the identical refinement ladder — so the solution, residual
// and iteration count all match bitwise, on every grid, and independent
// of the sequential solver's worker count.
func TestMixed2DMatchesSequentialMixed(t *testing.T) {
	n, nb := 72, 12
	a, b := matrix.RandomSystem(n, 17)
	want, wantRes, wantRep, err := lu.SolveMixed(a.Clone(), b, lu.Options{NB: nb, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.FellBack {
		t.Fatalf("sequential reference fell back: %+v", wantRep)
	}
	x3, res3, rep3, err := lu.SolveMixed(a.Clone(), b, lu.Options{NB: nb, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res3 != wantRes || rep3.Iterations != wantRep.Iterations {
		t.Fatalf("sequential mixed solve is worker-dependent: %g/%d vs %g/%d",
			res3, rep3.Iterations, wantRes, wantRep.Iterations)
	}
	for i := range want {
		if x3[i] != want[i] {
			t.Fatalf("sequential mixed x[%d] differs across worker counts", i)
		}
	}

	for _, grid := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {2, 3}} {
		r, err := Solve(context.Background(), Grid{N: n, NB: nb, P: grid[0], Q: grid[1], Seed: 17, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if r.X[i] != want[i] {
				t.Fatalf("grid %v: x[%d] = %v, want %v (bitwise)", grid, i, r.X[i], want[i])
			}
		}
		if r.Residual != wantRes {
			t.Errorf("grid %v: residual %g, want %g (bitwise)", grid, r.Residual, wantRes)
		}
		if r.Refine.Iterations != wantRep.Iterations {
			t.Errorf("grid %v: %d refinement iters, want %d", grid, r.Refine.Iterations, wantRep.Iterations)
		}
	}
}

// TestMixed2DModeAndGridInvariance: every look-ahead schedule on every
// grid shape produces the bitwise identical solution — the schedules
// reorder communication and overlap, never arithmetic, in FP32 exactly as
// in FP64.
func TestMixed2DModeAndGridInvariance(t *testing.T) {
	base, err := Solve(context.Background(), Grid{N: 60, NB: 10, P: 1, Q: 1, Seed: 5, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LookaheadMode{LookaheadNone, LookaheadBasic, LookaheadPipelined} {
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 3}} {
			r, err := Solve(context.Background(), Grid{N: 60, NB: 10, P: grid[0], Q: grid[1], Seed: 5, Lookahead: mode, Precision: lu.PrecisionMixed}, nil)
			if err != nil {
				t.Fatalf("mode %v grid %v: %v", mode, grid, err)
			}
			for i := range base.X {
				if r.X[i] != base.X[i] {
					t.Fatalf("mode %v grid %v: solution differs at %d", mode, grid, i)
				}
			}
			if r.Refine.Iterations != base.Refine.Iterations {
				t.Errorf("mode %v grid %v: %d iters, base %d", mode, grid, r.Refine.Iterations, base.Refine.Iterations)
			}
		}
	}
}

// TestMixed2DHybridBitwiseMatchesPlain: the mixed hybrid driver runs its
// FP32 packed updates on the offload engine — the offload.runs counter
// moves — and is bitwise identical to the plain mixed driver, whose
// updates make the same micro-kernel calls.
func TestMixed2DHybridBitwiseMatchesPlain(t *testing.T) {
	reg := metrics.NewRegistry()
	offload.SetObservability(nil, reg)
	defer offload.SetObservability(nil, nil)
	n, nb := 96, 16
	plain, err := Solve(context.Background(), Grid{N: n, NB: nb, P: 2, Q: 2, Seed: 31, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Solve(context.Background(), Grid{N: n, NB: nb, P: 2, Q: 2, Seed: 31, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed, Offload: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hy.Residual != plain.Residual {
		t.Errorf("hybrid residual %g != plain %g (bitwise)", hy.Residual, plain.Residual)
	}
	for i := range plain.X {
		if hy.X[i] != plain.X[i] {
			t.Fatalf("hybrid mixed diverges from plain at %d: %v vs %v", i, hy.X[i], plain.X[i])
		}
	}
	if hy.Refine == nil || hy.Refine.FellBack {
		t.Errorf("hybrid mixed report: %+v", hy.Refine)
	}
	if reg.Counter("offload.runs").Value() == 0 {
		t.Error("the mixed hybrid solve never ran the offload engine")
	}
}

// TestMixed2DPrecisionFP64Passthrough: the precision-aware entry point
// with PrecisionFP64 is exactly the plain FP64 driver — bitwise, nil
// Refine.
func TestMixed2DPrecisionFP64Passthrough(t *testing.T) {
	want, err := Solve(context.Background(), Grid{N: 60, NB: 10, P: 2, Q: 2, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(context.Background(), Grid{N: 60, NB: 10, P: 2, Q: 2, Seed: 5, Lookahead: LookaheadPipelined, Precision: lu.PrecisionFP64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refine != nil {
		t.Errorf("FP64 solve carries a Refine report: %+v", r.Refine)
	}
	for i := range want.X {
		if r.X[i] != want.X[i] {
			t.Fatalf("FP64 passthrough differs at %d", i)
		}
	}
}

// installMixedTestSystem points both scatters at a fixed system for the
// duration of one test.
func installMixedTestSystem(t *testing.T, a *matrix.Dense, b []float64) {
	t.Helper()
	mixedTestSystem = func(n int, seed uint64) (*matrix.Dense, []float64) {
		if n != a.Rows {
			t.Fatalf("hook asked for n=%d, system is %d", n, a.Rows)
		}
		return a.Clone(), append([]float64(nil), b...)
	}
	t.Cleanup(func() { mixedTestSystem = nil })
}

// subnormalColumn32 rewrites one column to values below the FP32 normal
// range: regular in FP64, singular to Sgetf2.
func subnormalColumn32(a *matrix.Dense, col int) {
	for i := 0; i < a.Rows; i++ {
		a.Set(i, col, float64(i+1)*1e-41)
	}
}

// solveFellBack runs the mixed driver on a system it must fall back on and
// checks that the result's Seconds charges the failed FP32 attempt as well
// as the FP64 re-run. The attempt alone must report its own timed phase on
// its fallback exit; and rank 0's trace lane — its protocol phases and the
// refinement steps of both passes, disjoint spans that all lie inside the
// two timed phases — is a floor for their sum that the re-run alone does
// not reach.
func solveFellBack(t *testing.T, n, nb, p, q int, seed uint64) DistResult {
	t.Helper()
	ctx := context.Background()
	attempt, err := solve2DOnce(ctx, Grid{N: n, NB: nb, P: p, Q: q, Seed: seed, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil)
	if err != nil {
		t.Fatalf("grid %dx%d: mixed attempt: %v", p, q, err)
	}
	if attempt.Refine == nil || !attempt.Refine.FellBack || attempt.Seconds <= 0 {
		t.Errorf("grid %dx%d: mixed attempt alone: report %+v, Seconds %g; want a fallback with its timed phase",
			p, q, attempt.Refine, attempt.Seconds)
	}
	rec := new(trace.Recorder)
	r, err := Solve(ctx, Grid{N: n, NB: nb, P: p, Q: q, Seed: seed, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, rec)
	if err != nil {
		t.Fatalf("grid %dx%d: %v", p, q, err)
	}
	var lane0 float64
	for _, sp := range rec.Spans() {
		if sp.Worker == 0 {
			lane0 += sp.Duration()
		}
	}
	if r.Seconds < lane0 {
		t.Errorf("grid %dx%d: Seconds %g is less than rank 0's traced work across the attempt and the re-run (%g)",
			p, q, r.Seconds, lane0)
	}
	return r
}

// TestMixed2DSingularFP32FallsBack: a system whose FP32 demotion is
// singular must trip the distributed Sgetf2, fall back to the FP64
// driver without surfacing an error, and still pass the HPL bar — with
// the typed reason preserved on the final report.
func TestMixed2DSingularFP32FallsBack(t *testing.T) {
	n, nb := 48, 8
	a, b := matrix.RandomSystem(n, 5)
	subnormalColumn32(a, 11)
	installMixedTestSystem(t, a, b)

	for _, grid := range [][2]int{{1, 1}, {2, 2}} {
		r := solveFellBack(t, n, nb, grid[0], grid[1], 5)
		if r.Refine == nil || !r.Refine.FellBack || r.Refine.Reason != lu.FallbackSingular {
			t.Fatalf("grid %v: report %+v, want fp32-singular fallback", grid, r.Refine)
		}
		if r.Refine.Iterations != 0 {
			t.Errorf("grid %v: %d iterations before factorization failure, want 0", grid, r.Refine.Iterations)
		}
		if len(r.X) != n || r.Residual >= matrix.ResidualThreshold {
			t.Errorf("grid %v: FP64 fallback residual %g fails the HPL bar", grid, r.Residual)
		}
	}
}

// TestMixed2DStalledRefinementFallsBack: the ill-conditioned golden — a
// row dependency at tau = 1e-9, far below FP32 resolution — must stall
// refinement on the distributed driver exactly as on the shared-memory
// one, re-run in FP64, and report the stall.
func TestMixed2DStalledRefinementFallsBack(t *testing.T) {
	n, nb := 96, 16
	a, b := matrix.RandomSystem(n, 7)
	last := a.Row(n - 1)
	for j := range last {
		last[j] = 0
	}
	for i := 0; i < 3; i++ {
		row := a.Row(i)
		for j := range last {
			last[j] += row[j] / 3
		}
	}
	noise := matrix.NewPRNG(7 ^ 0xabcdef)
	for j := range last {
		last[j] += 1e-9 * (noise.Float64() - 0.5)
	}
	installMixedTestSystem(t, a, b)

	r := solveFellBack(t, n, nb, 2, 2, 7)
	if r.Refine == nil || !r.Refine.FellBack || r.Refine.Reason != lu.FallbackStalled {
		t.Fatalf("report %+v, want refinement-stalled fallback", r.Refine)
	}
	if r.Refine.Iterations < 1 {
		t.Errorf("stall reported after %d iterations, want >= 1", r.Refine.Iterations)
	}
	if r.Residual >= matrix.ResidualThreshold {
		t.Errorf("FP64 fallback residual %g fails the HPL bar", r.Residual)
	}
}

// TestMixed2DCtxCancellation: an already-cancelled context returns before
// any world spins up; deterministic mid-run cancellation unwinds every
// rank at a stage boundary with the plain context error.
func TestMixed2DCtxCancellation(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(done, Grid{N: 48, NB: 8, P: 2, Q: 2, Seed: 3, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	for _, after := range []int64{1, 5, 17} {
		ctx := &countCtx{Context: context.Background(), after: after}
		_, err := Solve(ctx, Grid{N: 64, NB: 8, P: 2, Q: 2, Seed: 3, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v, want context.Canceled", after, err)
		}
	}
}

// TestMixed2DErrors: argument validation matches the FP64 driver.
func TestMixed2DErrors(t *testing.T) {
	if _, err := Solve(context.Background(), Grid{N: 0, NB: 4, P: 2, Q: 2, Seed: 1, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Solve(context.Background(), Grid{N: 10, NB: 4, P: 0, Q: 2, Seed: 1, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil); err == nil {
		t.Error("P=0 should error")
	}
	if _, err := Solve(context.Background(), Grid{N: 16, NB: 0, P: 2, Q: 2, Seed: 1, Lookahead: LookaheadPipelined, Precision: lu.PrecisionMixed}, nil); err != nil {
		t.Errorf("nb=0 should clamp: %v", err)
	}
}
