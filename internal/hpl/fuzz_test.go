package hpl

import (
	"slices"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
)

// FuzzSolve2D explores the grid driver's shape space — n ≤ 96, any NB
// (zero and above n clamp), P, Q ≤ 4, every schedule, both precisions —
// against the shared-memory oracle bit for bit: lu.Sequential for FP64,
// lu.SolveMixed (solution, residual, refinement steps) for mixed. An FP64
// input also runs the fault-tolerant solver under an empty plan, whose X
// must be the plain grid's: ABFT bookkeeping never touches the data.
// testdata/fuzz/FuzzSolve2D holds the rows of
// TestGridShapeSpaceMatchesSequential (folded into n ≤ 96, P, Q ≤ 4), so
// plain `go test` replays them; `go test -fuzz=FuzzSolve2D` hunts beyond.
func FuzzSolve2D(f *testing.F) {
	f.Add(uint8(50), uint8(8), uint8(2), uint8(2), uint8(0), false)
	f.Fuzz(func(t *testing.T, nR, nbR, pR, qR, modeR uint8, mixed bool) {
		const seed = 29
		n := int(nR)
		if n < 1 || n > 96 {
			n = 1 + n%96
		}
		p, q := int(pR), int(qR)
		if p < 1 || p > 4 {
			p = 1 + p%4
		}
		if q < 1 || q > 4 {
			q = 1 + q%4
		}
		nb := int(nbR)
		eff := nb
		if eff < 1 || eff > n {
			eff = clampNB(n)
		}
		mode := allModes[int(modeR)%len(allModes)]
		a, b := matrix.RandomSystem(n, seed)

		if mixed {
			want, wantRes, wantRep, err := lu.SolveMixed(a.Clone(), b, lu.Options{NB: eff, Workers: 1})
			if err != nil || wantRep.FellBack {
				t.Skipf("mixed oracle did not converge: err %v, report %+v", err, wantRep)
			}
			r, err := SolveDistributed2DPrecision(n, nb, p, q, seed, mode, lu.PrecisionMixed)
			if err != nil {
				t.Fatalf("n=%d nb=%d %dx%d %s mixed: %v", n, nb, p, q, mode, err)
			}
			if r.Refine == nil || r.Refine.FellBack {
				t.Fatalf("n=%d nb=%d %dx%d %s mixed: report %+v", n, nb, p, q, mode, r.Refine)
			}
			if !slices.Equal(r.X, want) || r.Residual != wantRes || r.Refine.Iterations != wantRep.Iterations {
				t.Fatalf("n=%d nb=%d %dx%d %s mixed: differs from lu.SolveMixed", n, nb, p, q, mode)
			}
			return
		}

		fa := a.Clone()
		piv := make([]int, n)
		if err := lu.Sequential(fa, piv, lu.Options{NB: eff}); err != nil {
			t.Fatalf("sequential oracle: %v", err)
		}
		want := blas.LUSolve(fa, piv, b)
		r, err := SolveDistributed2DMode(n, nb, p, q, seed, mode)
		if err != nil {
			t.Fatalf("n=%d nb=%d %dx%d %s: %v", n, nb, p, q, mode, err)
		}
		if !slices.Equal(r.X, want) {
			t.Fatalf("n=%d nb=%d %dx%d %s: X differs from lu.Sequential", n, nb, p, q, mode)
		}
		ft, err := SolveDistributed2DFT(n, nb, p, q, seed, FTConfig{Lookahead: mode})
		if err != nil {
			t.Fatalf("n=%d nb=%d %dx%d %s ft: %v", n, nb, p, q, mode, err)
		}
		if !slices.Equal(ft.X, r.X) {
			t.Fatalf("n=%d nb=%d %dx%d %s: FT X under an empty plan differs from the plain grid", n, nb, p, q, mode)
		}
	})
}
