package hpl_test

import (
	"context"
	"testing"

	"phihpl"
	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
)

// TestMixedCountersCountGridSolves: lu.mixed_solves and lu.mixed_fallbacks
// count every mixed solve, native and grid alike — both reach the one
// increment site, lu.RefineMixed — so hplserver's /metrics does not
// undercount the grid modes.
func TestMixedCountersCountGridSolves(t *testing.T) {
	reg := metrics.NewRegistry()
	lu.SetMetrics(reg)
	defer lu.SetMetrics(nil)
	check := func(when string, solves, fallbacks int64) {
		t.Helper()
		c := reg.Snapshot().Counters
		if c["lu.mixed_solves"] != solves || c["lu.mixed_fallbacks"] != fallbacks {
			t.Errorf("%s: lu.mixed_solves %d, lu.mixed_fallbacks %d; want %d and %d",
				when, c["lu.mixed_solves"], c["lu.mixed_fallbacks"], solves, fallbacks)
		}
	}
	ctx := context.Background()
	for _, sp := range []phihpl.Spec{
		{Mode: phihpl.ModeNative, N: 200, NB: 32, Workers: 2, Seed: 1, Precision: phihpl.PrecisionMixed},
		{Mode: phihpl.ModeDist2D, N: 200, NB: 32, P: 2, Q: 2, Seed: 1, Precision: phihpl.PrecisionMixed},
	} {
		res, err := phihpl.Run(ctx, sp, nil)
		if err != nil || res.Refine == nil || res.Refine.FellBack {
			t.Fatalf("%s: refine %+v, err %v; want an accepted mixed solve", sp.Mode, res.Refine, err)
		}
	}
	check("native then 2x2 grid", 2, 0)

	// One fallback per mode on the fp32-singular fixture: the native mixed
	// solve in lu, then the grid's through the facade.
	const n = 48
	a, b := matrix.RandomSystem(n, 5)
	hpl.SubnormalColumn32(a, 11)
	if _, _, rep, err := lu.SolveMixed(a, b, lu.Options{NB: 8, Workers: 2}); err != nil || rep.Reason != lu.FallbackSingular {
		t.Fatalf("native: rep %+v, err %v; want an fp32-singular fallback", rep, err)
	}
	hpl.InstallMixedTestSystem(t, a, b)
	res, err := phihpl.Run(ctx, phihpl.Spec{Mode: phihpl.ModeDist2D, N: n, NB: 8, P: 2, Q: 2, Seed: 5,
		Precision: phihpl.PrecisionMixed}, nil)
	if err != nil || res.Refine == nil || res.Refine.Reason != lu.FallbackSingular {
		t.Fatalf("grid: refine %+v, err %v; want an fp32-singular fallback", res.Refine, err)
	}
	check("after one fallback per mode", 4, 2)
}
