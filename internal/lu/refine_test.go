package lu

import (
	"math"
	"testing"

	"phihpl/internal/matrix"
)

// gradedSystem builds an increasingly ill-conditioned system by scaling
// row i of a random matrix by decade^(i/n), so refinement has something
// to recover.
func gradedSystem(n int, decades float64, seed uint64) (*matrix.Dense, []float64) {
	a, b := matrix.RandomSystem(n, seed)
	for i := 0; i < n; i++ {
		s := math.Pow(10, -decades*float64(i)/float64(n))
		row := a.Row(i)
		for j := range row {
			row[j] *= s
		}
		b[i] *= s
	}
	return a, b
}

func TestSolveRefinedWellConditioned(t *testing.T) {
	a, b := matrix.RandomSystem(80, 3)
	x, res, err := SolveRefined(a, b, Options{NB: 16, Workers: 2}, Dynamic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 80 || res > matrix.ResidualThreshold {
		t.Errorf("res = %g", res)
	}
}

func TestSolveRefinedImprovesGradedSystem(t *testing.T) {
	a, b := gradedSystem(100, 8, 11)
	x0, res0, err := Solve(a, b, Options{NB: 20, Workers: 2}, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	xr, resR, err := SolveRefined(a, b, Options{NB: 20, Workers: 2}, Sequential, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Refinement never worsens the true residual norm, and typically
	// improves it on a graded system.
	sys := matrix.DenseSystem(a, b)
	r0, _ := sys.Sweep(x0)
	rr, _ := sys.Sweep(xr)
	n0, nr := matrix.VecNormInf(r0), matrix.VecNormInf(rr)
	if nr > n0*(1+1e-12) {
		t.Errorf("refinement worsened residual: %g -> %g", n0, nr)
	}
	if resR > res0*(1+1e-12) {
		t.Errorf("scaled residual worsened: %g -> %g", res0, resR)
	}
}

func TestSolveRefinedZeroStepsEqualsPlainSolve(t *testing.T) {
	a, b := matrix.RandomSystem(40, 7)
	x0, _, _ := Solve(a, b, Options{NB: 8}, Sequential)
	xr, _, err := SolveRefined(a, b, Options{NB: 8}, Sequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if x0[i] != xr[i] {
			t.Fatal("zero-step refinement must equal the plain solve")
		}
	}
}

func TestSolveRefinedSingular(t *testing.T) {
	a := matrix.NewDense(10, 10)
	if _, _, err := SolveRefined(a, make([]float64, 10), Options{NB: 4}, Sequential, 2); err == nil {
		t.Error("expected singularity error")
	}
}
