package main

import (
	"context"
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
	res, err := phihpl.SolveDistributed2DPrecisionCtx(context.Background(), 150, 16, gp, gq, 1,
		phihpl.LookaheadPipelined, phihpl.PrecisionMixed, nil)
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
