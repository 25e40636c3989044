package hpl

import (
	"slices"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/testutil"
)

// TestGridShapeSpaceMatchesSequential is the shape-space differential
// table of the grid driver: the awkward corners of (n, NB, P, Q) that the
// hand-picked cases elsewhere leave out, each under all three schedules
// and both precisions, against the shared-memory oracle bit for bit —
// lu.Sequential for FP64, lu.SolveMixed (solution, residual and
// refinement step count) for mixed. The last table pins the 1D entry
// point to the 1×R grid.
func TestGridShapeSpaceMatchesSequential(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const seed = 29
	for _, tc := range []struct {
		name        string
		n, nb, p, q int
	}{
		{"n-not-multiple-of-nb", 50, 8, 2, 2},
		{"ragged-thin-last-block-packed-k", 53, 16, 2, 3},
		{"nb-above-n-clamps-to-one-block", 20, 32, 2, 2},
		{"nb-equals-n", 24, 24, 1, 3},
		{"nb-above-n-clamps-to-64", 100, 200, 2, 2},
		{"nb-zero-clamps", 70, 0, 2, 2},
		{"more-ranks-than-blocks", 30, 10, 3, 3},
		{"more-process-rows-than-blocks", 40, 16, 4, 2},
		{"more-process-columns-than-blocks", 40, 16, 2, 4},
		{"one-process-row", 66, 16, 1, 5},
		{"one-process-column", 66, 16, 5, 1},
		{"one-rank-ragged", 37, 16, 1, 1},
		{"unit-blocks", 7, 1, 2, 2},
		{"n-equals-one", 1, 4, 2, 2},
	} {
		nb := tc.nb
		if nb < 1 || nb > tc.n {
			nb = clampNB(tc.n)
		}
		a, b := matrix.RandomSystem(tc.n, seed)

		f := a.Clone()
		piv := make([]int, tc.n)
		if err := lu.Sequential(f, piv, lu.Options{NB: nb}); err != nil {
			t.Fatalf("%s: sequential oracle: %v", tc.name, err)
		}
		want64 := blas.LUSolve(f, piv, b)

		wantMx, wantRes, wantRep, err := lu.SolveMixed(a.Clone(), b, lu.Options{NB: nb, Workers: 1})
		if err != nil || wantRep.FellBack {
			t.Fatalf("%s: mixed oracle: err %v, report %+v", tc.name, err, wantRep)
		}

		for _, mode := range allModes {
			r, err := SolveDistributed2DMode(tc.n, tc.nb, tc.p, tc.q, seed, mode)
			if err != nil {
				t.Fatalf("%s %s fp64: %v", tc.name, mode, err)
			}
			if r.Ranks != tc.p*tc.q || r.Panels != (tc.n+nb-1)/nb || r.Refine != nil {
				t.Errorf("%s %s fp64: metadata %d ranks, %d panels, refine %+v", tc.name, mode, r.Ranks, r.Panels, r.Refine)
			}
			if r.Residual > matrix.ResidualThreshold {
				t.Errorf("%s %s fp64: residual %g FAILED", tc.name, mode, r.Residual)
			}
			if !slices.Equal(r.X, want64) {
				t.Errorf("%s %s fp64: X differs from lu.Sequential", tc.name, mode)
			}

			m, err := SolveDistributed2DPrecision(tc.n, tc.nb, tc.p, tc.q, seed, mode, lu.PrecisionMixed)
			if err != nil {
				t.Fatalf("%s %s mixed: %v", tc.name, mode, err)
			}
			if m.Refine == nil || m.Refine.FellBack {
				t.Fatalf("%s %s mixed: report %+v", tc.name, mode, m.Refine)
			}
			if !slices.Equal(m.X, wantMx) {
				t.Errorf("%s %s mixed: X differs from lu.SolveMixed", tc.name, mode)
			}
			if m.Residual != wantRes || m.Refine.Iterations != wantRep.Iterations {
				t.Errorf("%s %s mixed: residual %g after %d steps, oracle %g after %d",
					tc.name, mode, m.Residual, m.Refine.Iterations, wantRes, wantRep.Iterations)
			}
		}
	}

	for _, tc := range []struct{ n, nb, ranks int }{
		{60, 12, 1},
		{50, 8, 3},   // n not a multiple of nb
		{131, 24, 5}, // ragged last panel, uneven ownership
		{20, 32, 4},  // nb clamped to one panel: three idle ranks
		{64, 8, 8},
		{100, 0, 3}, // nb defaulted
	} {
		one, err := SolveDistributed(tc.n, tc.nb, tc.ranks, seed)
		if err != nil {
			t.Fatalf("%+v 1D: %v", tc, err)
		}
		grid, err := SolveDistributed2D(tc.n, tc.nb, 1, tc.ranks, seed)
		if err != nil {
			t.Fatalf("%+v 1xR: %v", tc, err)
		}
		if !slices.Equal(one.X, grid.X) || one.Residual != grid.Residual {
			t.Errorf("%+v: SolveDistributed differs from the 1x%d grid", tc, tc.ranks)
		}
		if one.Ranks != grid.Ranks || one.Panels != grid.Panels {
			t.Errorf("%+v: metadata %d/%d vs %d/%d", tc, one.Ranks, one.Panels, grid.Ranks, grid.Panels)
		}
	}
}
