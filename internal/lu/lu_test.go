package lu

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
)

type driver[T matrix.Float] struct {
	name string
	f    func(*matrix.Of[T], []int, Options) error
}

func driversOf[T matrix.Float]() []driver[T] {
	return []driver[T]{
		{"sequential", Sequential[T]},
		{"static", StaticLookahead[T]},
		{"dynamic", Dynamic[T]},
	}
}

var drivers = driversOf[float64]()

// bitwiseShapes are the (n, NB) the driver-equivalence suites factor in
// both precisions: panels narrower than 16, n mod NB in 1…15, a single
// panel, 1×1, and (tiny) the 12×12 matrix whose column 5 lies below
// 0x1p-126 — regular in FP64, singular in FP32.
var bitwiseShapes = []struct {
	n, nb int
	tiny  bool
}{
	{16, 32, false}, {48, 32, false}, {100, 32, false}, {129, 32, false},
	{100, 7, false}, {257, 16, false}, {65, 64, false}, {96, 96, false},
	{1, 1, false}, {12, 4, true},
}

// eachShape calls check with every bitwise shape's matrix in float64 and
// in float32 (the FP64 matrix rounded, as the mixed solve rounds it).
func eachShape(check func(a64 *matrix.Dense, a32 *matrix.Dense32, nb int)) {
	for _, sh := range bitwiseShapes {
		a := matrix.RandomGeneral(sh.n, sh.n, uint64(sh.n))
		if sh.tiny {
			subnormalColumn(a, 5)
		}
		check(a, a.ToDense32(), sh.nb)
	}
}

// matchGetrf factors a with f at 1, 2 and 4 workers and requires the
// factors, pivots and SingularError column of blas.Getrf, the blocked
// reference, at a's own element type bit for bit.
func matchGetrf[T matrix.Float](t *testing.T, name string, f func(*matrix.Of[T], []int, Options) error, a *matrix.Of[T], nb int) {
	t.Helper()
	want, wantPiv := a.Clone(), make([]int, a.Rows)
	wantCol := singularCol(t, blas.Getrf(want, wantPiv, nb, 1))
	for _, w := range []int{1, 2, 4} {
		tag := fmt.Sprintf("%s[%T] n=%d nb=%d w=%d", name, *new(T), a.Rows, nb, w)
		got, piv := a.Clone(), make([]int, a.Rows)
		if col := singularCol(t, f(got, piv, Options{NB: nb, Workers: w})); col != wantCol {
			t.Errorf("%s: singular column %d, want %d", tag, col, wantCol)
		}
		if !matrix.Equal(got, want) {
			t.Errorf("%s: factors differ (maxdiff %g)", tag, matrix.MaxDiff(got, want))
		}
		if !slices.Equal(piv, wantPiv) {
			t.Errorf("%s: pivots %v, want %v", tag, piv, wantPiv)
		}
	}
}

// singularCol is the column a *blas.SingularError names, −1 for no error.
func singularCol(t *testing.T, err error) int {
	t.Helper()
	var se *blas.SingularError
	switch {
	case err == nil:
		return -1
	case errors.As(err, &se):
		return se.Col
	}
	t.Fatalf("unexpected error %v", err)
	return 0
}

func TestDriversBitwiseIdentical(t *testing.T) {
	// The paper's claim in miniature: dynamic scheduling reorders only
	// independent work, so factors and pivots are *identical* — not just
	// numerically close — across drivers, in either precision.
	eachShape(func(a64 *matrix.Dense, a32 *matrix.Dense32, nb int) {
		for i, d := range drivers {
			matchGetrf(t, d.name, d.f, a64, nb)
			matchGetrf(t, d.name, driversOf[float32]()[i].f, a32, nb)
		}
	})
}

func TestSolveResidualAllDrivers(t *testing.T) {
	for _, d := range drivers {
		for _, n := range []int{10, 64, 150} {
			a, b := matrix.RandomSystem(n, uint64(n)+7)
			x, res, err := Solve(a, b, Options{NB: 24, Workers: 3}, d.f)
			if err != nil {
				t.Fatalf("%s n=%d: %v", d.name, n, err)
			}
			if len(x) != n {
				t.Fatalf("%s: bad solution length", d.name)
			}
			if res > matrix.ResidualThreshold {
				t.Errorf("%s n=%d: residual %g FAILED (threshold %g)",
					d.name, n, res, matrix.ResidualThreshold)
			}
		}
	}
}

func TestNBClampAndDefaults(t *testing.T) {
	// NB larger than n, zero workers: must still work.
	n := 20
	a, b := matrix.RandomSystem(n, 3)
	for _, d := range drivers {
		_, res, err := Solve(a, b, Options{NB: 999, Workers: 0}, d.f)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if res > matrix.ResidualThreshold {
			t.Errorf("%s: residual %g", d.name, res)
		}
	}
	// Zero NB takes the default.
	o := Options{}.withDefaults(1000)
	if o.NB != 64 || o.Workers != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestSingularMatrixReported(t *testing.T) {
	for _, d := range drivers {
		a := matrix.NewDense(12, 12) // identically zero
		piv := make([]int, 12)
		if err := d.f(a, piv, Options{NB: 4, Workers: 2}); err == nil {
			t.Errorf("%s: expected singularity error", d.name)
		}
	}
}

func TestNonSquarePanics(t *testing.T) {
	for _, d := range drivers[1:] { // static and dynamic use newState
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for non-square", d.name)
				}
			}()
			d.f(matrix.NewDense(3, 4), make([]int, 3), Options{NB: 2})
		}()
	}
}

func TestDynamicStats(t *testing.T) {
	n := 60
	a := matrix.RandomGeneral(n, n, 11)
	piv := make([]int, n)
	stats, err := DynamicStats(a, piv, Options{NB: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	np := (n + 9) / 10
	wantTasks := int64(np + np*(np-1)/2)
	if stats.TasksComplete != wantTasks {
		t.Errorf("tasks = %d, want %d", stats.TasksComplete, wantTasks)
	}
	if stats.NextCalls < wantTasks {
		t.Errorf("NextCalls = %d < tasks", stats.NextCalls)
	}
	// The result must still be correct.
	want := matrix.RandomGeneral(n, n, 11)
	wantPiv := make([]int, n)
	if err := blas.Dgetrf(want, wantPiv, 10); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a, want) {
		t.Error("DynamicStats factors differ from reference")
	}
}

func TestPanelHelpers(t *testing.T) {
	if panels(100, 30) != 4 {
		t.Error("panels")
	}
	lo, hi := panelCols(100, 30, 3)
	if lo != 90 || hi != 100 {
		t.Errorf("last panel = [%d,%d)", lo, hi)
	}
}

func TestGlobalPivotsLengthPanic(t *testing.T) {
	a := matrix.RandomGeneral(8, 8, 1)
	st := newState(a, Options{NB: 4, Workers: 1}.withDefaults(8))
	st.piv[0] = []int{0, 1, 2, 3}
	st.piv[1] = []int{0, 1, 2, 3}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	st.globalPivots(make([]int, 7))
}

// Property: for random sizes/blockings/seeds, dynamic == sequential
// bitwise and solves pass the residual check.
func TestDynamicEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, nRaw, nbRaw, wRaw uint8) bool {
		n := 8 + int(nRaw)%60
		nb := 2 + int(nbRaw)%16
		w := 1 + int(wRaw)%6
		a := matrix.RandomGeneral(n, n, seed)
		d := a.Clone()
		dp := make([]int, n)
		if err := Dynamic(d, dp, Options{NB: nb, Workers: w}); err != nil {
			return true // singular: skip
		}
		s := a.Clone()
		sp := make([]int, n)
		if err := blas.Dgetrf(s, sp, nb); err != nil {
			return true
		}
		if !matrix.Equal(d, s) {
			return false
		}
		for i := range dp {
			if dp[i] != sp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
