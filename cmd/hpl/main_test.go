package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"phihpl"
)

// TestMixedSupportedPaths locks the lifted -precision mixed contract: the
// native shared-memory solve and the real grid driver accept mixed on
// every shape — the guard no longer looks at the grid at all — and fp64 is
// accepted everywhere.
func TestMixedSupportedPaths(t *testing.T) {
	type args struct{ native, real, ft, dat bool }
	for _, tc := range []args{
		{native: true},           // -native -precision mixed
		{real: true},             // -real on any grid: -p/-q, or -ranks alone
		{native: true, ft: true}, // -native wins before the FT path is reached
	} {
		if msg := mixedUnsupportedMsg(tc.native, tc.real, tc.ft, tc.dat, phihpl.PrecisionMixed); msg != "" {
			t.Errorf("%+v with -precision mixed must be accepted, got %q", tc, msg)
		}
	}
	for _, tc := range []args{
		{}, {real: true}, {ft: true}, {dat: true},
	} {
		if msg := mixedUnsupportedMsg(tc.native, tc.real, tc.ft, tc.dat, phihpl.PrecisionFP64); msg != "" {
			t.Errorf("%+v with fp64 must be accepted, got %q", tc, msg)
		}
	}
	for _, tc := range []struct{ p, q, ranks, wantP, wantQ int }{
		{2, 3, 4, 2, 3}, // -p/-q name the grid
		{1, 4, 9, 1, 4},
		{4, 1, 9, 4, 1},
		{1, 1, 3, 1, 3}, // -ranks alone: one process row
	} {
		if gp, gq := realGrid(tc.p, tc.q, tc.ranks); gp != tc.wantP || gq != tc.wantQ {
			t.Errorf("realGrid(%d, %d, %d) = %dx%d, want %dx%d", tc.p, tc.q, tc.ranks, gp, gq, tc.wantP, tc.wantQ)
		}
	}
}

// TestRealRanksMixedSolves: `-real -ranks 3 -precision mixed`, refused
// while -ranks had a driver of its own, is the grid branch's call on the
// 1×3 grid — it solves, refines without falling back, and passes.
func TestRealRanksMixedSolves(t *testing.T) {
	gp, gq := realGrid(1, 1, 3)
	res, err := phihpl.Run(context.Background(), phihpl.Spec{Mode: phihpl.ModeDist2D, N: 150, NB: 16,
		P: gp, Q: gq, Seed: 1, Lookahead: phihpl.LookaheadPipelined, Precision: phihpl.PrecisionMixed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Errorf("residual %g FAILED", res.Residual)
	}
	if res.Refine == nil || res.Refine.FellBack || res.Refine.Iterations < 1 {
		t.Errorf("refinement report %+v, want FP32 factors refined to the bar", res.Refine)
	}
}

// TestMixedUnsupportedGuard: the paths still outside the mixed ladder
// refuse with a diagnostic (exit code 3 in main) that names both the
// reason and the nearest supported invocation, instead of silently
// running FP64.
func TestMixedUnsupportedGuard(t *testing.T) {
	for _, tc := range []struct {
		name          string
		real, ft, dat bool
		wants         []string
	}{
		{name: "ft", real: true, ft: true, wants: []string{"-faults/-ft", "ABFT", "FP64"}},
		{name: "dat", dat: true, wants: []string{"-dat", "-real -p P -q Q"}},
		{name: "projection", wants: []string{"projection", "-native", "-real"}},
	} {
		msg := mixedUnsupportedMsg(false, tc.real, tc.ft, tc.dat, phihpl.PrecisionMixed)
		if msg == "" {
			t.Fatalf("%s: -precision mixed must be refused", tc.name)
		}
		for _, want := range tc.wants {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: diagnostic %q should mention %q", tc.name, msg, want)
			}
		}
	}
	if exitUnsupported != 3 {
		t.Errorf("exitUnsupported = %d, want the documented code 3", exitUnsupported)
	}
}

// TestResultLineRate: every real branch prints one result line whose rate
// is HPL's — the flop count over the solve's timed phase res.Seconds, not
// over the wall time of the call, which also generates A and checks the
// residual.
func TestResultLineRate(t *testing.T) {
	for _, sp := range []phihpl.Spec{
		{Mode: phihpl.ModeNative, N: 200, NB: 32, Workers: 2, Seed: 1},
		{Mode: phihpl.ModeNative, N: 200, NB: 32, Workers: 2, Seed: 1, Precision: phihpl.PrecisionMixed},
		{Mode: phihpl.ModeDist2D, N: 200, NB: 32, P: 1, Q: 3, Seed: 1},
		{Mode: phihpl.ModeFT, N: 200, NB: 32, P: 2, Q: 2, Seed: 1},
	} {
		res, err := phihpl.Run(context.Background(), sp, nil)
		if err != nil {
			t.Fatalf("%s %s: %v", sp.Mode, sp.Precision, err)
		}
		line := resultLine(sp, "", res)
		want := fmt.Sprintf(" %.3fs %.2f GFLOPS", res.Seconds, phihpl.LUFlops(sp.N)/res.Seconds/1e9)
		if res.Seconds <= 0 || !strings.HasSuffix(line, want) {
			t.Errorf("%s %s: result line %q, want it to end with %q (LUFlops(n)/Seconds)", sp.Mode, sp.Precision, line, want)
		}
	}
	// A fixed timed phase pins the arithmetic: 2/3·n³ + 2·n² flops in 0.5 s.
	line := resultLine(phihpl.Spec{Mode: phihpl.ModeDist2D, N: 1000, NB: 64, P: 2, Q: 2}, "", phihpl.SolveResult{Seconds: 0.5})
	if want := "N=1000 NB=64 grid=2x2 lookahead=pipelined 0.500s 1.34 GFLOPS"; line != want {
		t.Errorf("result line %q, want %q", line, want)
	}
}
