package lu

import (
	"testing"

	"phihpl/internal/matrix"
)

// goldenCases is the ReFrame-style reference table for the HPL residual
// regression: each row pins the expected pass/fail verdict of the scaled
// residual check for a seeded system solved through the packed-tile fast
// path. The matrices are well-conditioned random systems, so the verdict
// is `pass` for every size; a fast-path numerics regression that pushes
// the residual past matrix.ResidualThreshold flips a verdict and fails
// this table.
var goldenCases = []struct {
	n    int
	nb   int
	pass bool
}{
	{64, 32, true},
	{256, 64, true},
	{512, 64, true},
}

// TestGoldenResidualRegression solves each golden system with all three
// drivers through the packed GEMM, asserts the HPL verdict against the
// reference table, and then re-solves with Sequential at NB = n — one
// unblocked Getf2 over the whole matrix, no GEMM at all — to confirm the
// two agree on the verdict: the packed path must not change whether HPL
// passes.
func TestGoldenResidualRegression(t *testing.T) {
	t.Parallel()
	for _, g := range goldenCases {
		a, b := matrix.RandomSystem(g.n, uint64(g.n))
		opts := Options{NB: g.nb, Workers: 4}

		var firstX []float64
		for _, d := range drivers {
			x, res, err := Solve(a, b, opts, d.f)
			if err != nil {
				t.Fatalf("n=%d %s: %v", g.n, d.name, err)
			}
			if got := res <= matrix.ResidualThreshold; got != g.pass {
				t.Errorf("n=%d %s: residual %g gives verdict %v, golden table says %v",
					g.n, d.name, res, got, g.pass)
			}
			if firstX == nil {
				firstX = x
			}
		}

		// Reference path: the unblocked factorization, and the same verdict.
		xRef, resRef, err := Solve(a, b, Options{NB: g.n}, Sequential)
		if err != nil {
			t.Fatalf("n=%d reference path: %v", g.n, err)
		}
		if got := resRef <= matrix.ResidualThreshold; got != g.pass {
			t.Errorf("n=%d reference path: residual %g gives verdict %v, golden table says %v",
				g.n, resRef, got, g.pass)
		}

		// The two solutions solve the same system; they need not be bitwise
		// equal (different accumulation order) but must agree to the scale
		// the residual bound implies.
		var maxd, maxx float64
		for i := range firstX {
			if d := abs(firstX[i] - xRef[i]); d > maxd {
				maxd = d
			}
			if v := abs(xRef[i]); v > maxx {
				maxx = v
			}
		}
		if maxd > 1e-6*(1+maxx) {
			t.Errorf("n=%d: packed and reference solutions diverge: max |Δx| = %g", g.n, maxd)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
