package lu

import (
	"errors"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
)

// TestSolveSurfacesSingularColumn checks that every native driver reports
// a rank-deficient system as a typed error carrying the offending global
// column, instead of dividing by zero and returning garbage.
func TestSolveSurfacesSingularColumn(t *testing.T) {
	const n, bad = 48, 29
	a := matrix.RandomGeneral(n, n, 3)
	for i := 0; i < n; i++ {
		a.Set(i, bad, 0) // exactly zero column: pivot search finds nothing
	}
	b := make([]float64, n)
	for name, driver := range map[string]func(*matrix.Dense, []int, Options) error{
		"sequential": Sequential[float64],
		"static":     StaticLookahead[float64],
		"dynamic":    Dynamic[float64],
	} {
		_, _, err := Solve(a, b, Options{NB: 16, Workers: 4}, driver)
		if !errors.Is(err, blas.ErrSingular) {
			t.Fatalf("%s: want ErrSingular, got %v", name, err)
		}
		var se *blas.SingularError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v does not carry *SingularError", name, err)
		}
		if se.Col != bad {
			t.Errorf("%s: offending column = %d, want %d", name, se.Col, bad)
		}
	}
}
