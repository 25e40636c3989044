package hpl

import (
	"context"
	"slices"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/testutil"
)

// TestGridShapeSpaceMatchesSequential is the shape-space differential
// table of the grid driver: the awkward corners of (n, NB, P, Q) that the
// hand-picked cases elsewhere leave out, each under all three schedules,
// both precisions and with the offload engine off and on, against the
// shared-memory oracle bit for bit —
// lu.Sequential for FP64, lu.SolveMixed (solution, residual and
// refinement step count) for mixed. msgs is the solve's point-to-point
// sends summed over its ranks, the same under every schedule, offload
// setting and precision: the schedules reorder the protocol's messages
// but neither add nor drop one.
func TestGridShapeSpaceMatchesSequential(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const seed = 29
	for _, tc := range []struct {
		name        string
		n, nb, p, q int
		msgs        uint64
	}{
		{"n-not-multiple-of-nb", 50, 8, 2, 2, 75},
		{"ragged-thin-last-block-packed-k", 53, 16, 2, 3, 52},
		{"nb-above-n-clamps-to-one-block", 20, 32, 2, 2, 6},
		{"nb-equals-n", 24, 24, 1, 3, 4},
		{"nb-above-n-clamps-to-64", 100, 200, 2, 2, 15},
		{"nb-zero-clamps", 70, 0, 2, 2, 15},
		{"more-ranks-than-blocks", 30, 10, 3, 3, 59},
		{"more-process-rows-than-blocks", 40, 16, 4, 2, 52},
		{"more-process-columns-than-blocks", 40, 16, 2, 4, 49},
		{"one-process-row", 66, 16, 1, 5, 24},
		{"one-process-column", 66, 16, 5, 1, 92},
		{"one-rank-ragged", 37, 16, 1, 1, 0},
		{"unit-blocks", 7, 1, 2, 2, 59},
		{"n-equals-one", 1, 4, 2, 2, 6},
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
			for _, off := range []bool{false, true} {
				r, sends, err := solveCountingSends(Grid{N: tc.n, NB: tc.nb, P: tc.p, Q: tc.q, Seed: seed, Lookahead: mode, Offload: off})
				if err != nil {
					t.Fatalf("%s %s offload=%v fp64: %v", tc.name, mode, off, err)
				}
				if sends != tc.msgs {
					t.Errorf("%s %s offload=%v fp64: %d messages, want %d", tc.name, mode, off, sends, tc.msgs)
				}
				if r.Ranks != tc.p*tc.q || r.Panels != (tc.n+nb-1)/nb || r.Refine != nil {
					t.Errorf("%s %s offload=%v fp64: metadata %d ranks, %d panels, refine %+v", tc.name, mode, off, r.Ranks, r.Panels, r.Refine)
				}
				if r.Residual > matrix.ResidualThreshold {
					t.Errorf("%s %s offload=%v fp64: residual %g FAILED", tc.name, mode, off, r.Residual)
				}
				if !slices.Equal(r.X, want64) {
					t.Errorf("%s %s offload=%v fp64: X differs from lu.Sequential", tc.name, mode, off)
				}

				m, sends, err := solveCountingSends(Grid{N: tc.n, NB: tc.nb, P: tc.p, Q: tc.q, Seed: seed, Lookahead: mode, Precision: lu.PrecisionMixed, Offload: off})
				if err != nil {
					t.Fatalf("%s %s offload=%v mixed: %v", tc.name, mode, off, err)
				}
				if sends != tc.msgs {
					t.Errorf("%s %s offload=%v mixed: %d messages, want %d", tc.name, mode, off, sends, tc.msgs)
				}
				if m.Refine == nil || m.Refine.FellBack {
					t.Fatalf("%s %s offload=%v mixed: report %+v", tc.name, mode, off, m.Refine)
				}
				if !slices.Equal(m.X, wantMx) {
					t.Errorf("%s %s offload=%v mixed: X differs from lu.SolveMixed", tc.name, mode, off)
				}
				if m.Residual != wantRes || m.Refine.Iterations != wantRep.Iterations {
					t.Errorf("%s %s offload=%v mixed: residual %g after %d steps, oracle %g after %d",
						tc.name, mode, off, m.Residual, m.Refine.Iterations, wantRes, wantRep.Iterations)
				}
			}
		}
	}
}

// TestGridSendsPerSolve pins the message count of the benchmark's grid
// solve, 1536/32 on 2×2, under every schedule: per stage one gather and
// one scatter message per contributing process row, the scatter and the
// L broadcast carrying the pivots, one swap message per peer process row
// and one U message per tree edge and column; then the final gather.
func TestGridSendsPerSolve(t *testing.T) {
	const want = 1510
	for _, mode := range allModes {
		r, sends, err := solveCountingSends(Grid{N: 1536, NB: 32, P: 2, Q: 2, Seed: 1, Lookahead: mode})
		if err != nil || r.Residual > matrix.ResidualThreshold {
			t.Fatalf("%s: residual %g, err %v", mode, r.Residual, err)
		}
		if sends != want {
			t.Errorf("%s: %d messages per solve, want %d", mode, sends, want)
		}
	}
}

// solveCountingSends runs Solve and sums World.SendCount over the ranks
// of every world the solve built.
func solveCountingSends(g Grid) (DistResult, uint64, error) {
	var worlds []*cluster.World
	testHookWorld = func(w *cluster.World) { worlds = append(worlds, w) }
	defer func() { testHookWorld = nil }()
	r, err := Solve(context.Background(), g, nil)
	var sends uint64
	for _, w := range worlds {
		for rk := 0; rk < w.Size(); rk++ {
			sends += w.SendCount(rk)
		}
	}
	return r, sends, err
}
