package blas

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"phihpl/internal/matrix"
)

// reconstructLU multiplies the packed factors back together and applies the
// inverse row permutation, recovering the original matrix.
func reconstructLU(lu *matrix.Dense, piv []int) *matrix.Dense {
	n := lu.Rows
	l := matrix.Eye(n)
	u := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, lu.At(i, j))
			} else {
				u.Set(i, j, lu.At(i, j))
			}
		}
	}
	prod := matrix.NewDense(n, n)
	Dgemm(false, false, 1, l, u, 0, prod)
	// Undo the pivoting: Dgetf2 applied swaps top-down, so invert bottom-up.
	for k := len(piv) - 1; k >= 0; k-- {
		if piv[k] != k {
			SwapRows(prod, k, piv[k])
		}
	}
	return prod
}

func TestDgetf2FactorsCorrectly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17} {
		a := matrix.RandomGeneral(n, n, uint64(n))
		orig := a.Clone()
		piv := make([]int, n)
		if err := Dgetf2(a, piv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := reconstructLU(a, piv)
		if d := matrix.MaxDiff(recon, orig); d > 1e-10 {
			t.Errorf("n=%d: reconstruction error %g", n, d)
		}
	}
}

func TestDgetf2RectangularPanel(t *testing.T) {
	// Tall panel, the shape of Linpack panel factorization.
	m, n := 20, 4
	a := matrix.RandomGeneral(m, n, 77)
	orig := a.Clone()
	piv := make([]int, n)
	if err := Dgetf2(a, piv); err != nil {
		t.Fatal(err)
	}
	// Check A = P⁻¹ L U on the panel: build L (m×n unit-lower trapezoid)
	// and U (n×n upper).
	l := matrix.NewDense(m, n)
	u := matrix.NewDense(n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, a.At(i, j))
			case i > j:
				l.Set(i, j, a.At(i, j))
			default:
				if i < n {
					u.Set(i, j, a.At(i, j))
				}
			}
		}
	}
	prod := matrix.NewDense(m, n)
	Dgemm(false, false, 1, l, u, 0, prod)
	for k := n - 1; k >= 0; k-- {
		if piv[k] != k {
			SwapRows(prod, k, piv[k])
		}
	}
	if d := matrix.MaxDiff(prod, orig); d > 1e-10 {
		t.Errorf("panel reconstruction error %g", d)
	}
}

func TestDgetf2PivotsAreMaximal(t *testing.T) {
	// After factorization all multipliers |L(i,j)| <= 1 — the defining
	// property of partial pivoting.
	a := matrix.RandomGeneral(30, 30, 5)
	piv := make([]int, 30)
	if err := Dgetf2(a, piv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < i; j++ {
			if v := a.At(i, j); v > 1+1e-15 || v < -1-1e-15 {
				t.Fatalf("multiplier L(%d,%d)=%v exceeds 1", i, j, v)
			}
		}
	}
}

func TestDgetf2Singular(t *testing.T) {
	a := matrix.NewDense(3, 3) // all zeros
	piv := make([]int, 3)
	if err := Dgetf2(a, piv); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestDgetf2PivLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dgetf2(matrix.NewDense(3, 3), make([]int, 2))
}

func TestDgetrfMatchesUnblocked(t *testing.T) {
	for _, nb := range []int{1, 2, 3, 8, 64} {
		n := 24
		a := matrix.RandomGeneral(n, n, 123)
		blocked := a.Clone()
		pivB := make([]int, n)
		if err := Dgetrf(blocked, pivB, nb); err != nil {
			t.Fatalf("nb=%d: %v", nb, err)
		}
		unblocked := a.Clone()
		pivU := make([]int, n)
		if err := Dgetf2(unblocked, pivU); err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxDiff(blocked, unblocked); d > 1e-10 {
			t.Errorf("nb=%d: factors differ from unblocked by %g", nb, d)
		}
		for i := range pivB {
			if pivB[i] != pivU[i] {
				t.Errorf("nb=%d: pivot %d differs: %d vs %d", nb, i, pivB[i], pivU[i])
			}
		}
	}
}

func TestDgetrfDefaultBlockAndErrors(t *testing.T) {
	n := 10
	a := matrix.RandomGeneral(n, n, 9)
	piv := make([]int, n)
	if err := Dgetrf(a, piv, 0); err != nil { // nb<1 -> default
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected pivot-length panic")
			}
		}()
		Dgetrf(matrix.NewDense(4, 4), make([]int, 3), 2)
	}()
	// Singular blocked matrix reports ErrSingular.
	z := matrix.NewDense(6, 6)
	if err := Dgetrf(z, make([]int, 6), 2); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLUSolveAgainstResidual(t *testing.T) {
	for _, n := range []int{1, 5, 16, 50, 100} {
		a, b := matrix.RandomSystem(n, uint64(n)*31)
		lu := a.Clone()
		piv := make([]int, n)
		if err := Dgetrf(lu, piv, 8); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := LUSolve(lu, piv, b)
		if r := matrix.Residual(a, x, b); r > matrix.ResidualThreshold {
			t.Errorf("n=%d: scaled residual %g exceeds %g", n, r, matrix.ResidualThreshold)
		}
	}
}

// luSolveOracle is the forward/back substitution written out over whole
// rows, the loops LUSolveRuns's runs must add up to.
func luSolveOracle[T matrix.Float](lu *matrix.Of[T], piv []int, b []float64) []float64 {
	n := lu.Rows
	x := append([]float64(nil), b...)
	for k, p := range piv {
		x[k], x[p] = x[p], x[k]
	}
	for i := 0; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(lu.At(i, j)) * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(lu.At(i, j)) * x[j]
		}
		x[i] = s / float64(lu.At(i, i))
	}
	return x
}

// LUSolveRuns is bitwise the whole-row substitution however the rows are
// cut into runs — single elements, random lengths, runs that overshoot
// the diagonal — over FP64 and FP32 factors, and LUSolve is its one-run
// case.
func TestLUSolveRunsAnyCut(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 37} {
		a, b := matrix.RandomSystem(n, uint64(n)*7)
		lu := a.Clone()
		piv := make([]int, n)
		if err := Dgetrf(lu, piv, 4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lu32 := lu.ToDense32()
		want, want32 := luSolveOracle(lu, piv, b), luSolveOracle(lu32, piv, b)
		cuts := map[string]func(i, j int) int{
			"whole":  func(i, j int) int { return n - j },
			"single": func(i, j int) int { return 1 },
			"random": func(i, j int) int { return 1 + (i*31+j*17)%(n-j) },
			"blocks": func(i, j int) int { return min(3-j%3, n-j) },
		}
		for name, cut := range cuts {
			run := func(i, j int) []float64 { return lu.Row(i)[j : j+cut(i, j)] }
			run32 := func(i, j int) []float32 { return lu32.Row(i)[j : j+cut(i, j)] }
			if x := LUSolveRuns(n, run, piv, b); !bitsEqual(x, want) {
				t.Errorf("n=%d %s cut: FP64 solve differs from the whole-row loops", n, name)
			}
			if x := LUSolveRuns(n, run32, piv, b); !bitsEqual(x, want32) {
				t.Errorf("n=%d %s cut: FP32 solve differs from the whole-row loops", n, name)
			}
		}
		if !bitsEqual(LUSolve(lu, piv, b), want) || !bitsEqual(LUSolve(lu32, piv, b), want32) {
			t.Errorf("n=%d: LUSolve differs from the whole-row loops", n)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func TestLUSolvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	LUSolve(matrix.NewDense(3, 3), make([]int, 3), []float64{1, 2})
}

func TestDlaswp(t *testing.T) {
	a := matrix.FromRows([][]float64{{1}, {2}, {3}, {4}})
	// piv from a factorization of rows 1..2 (offset 1): swap (1,2),(2,3).
	Dlaswp(a, []int{1, 2}, 1)
	want := matrix.FromRows([][]float64{{1}, {3}, {4}, {2}})
	if !matrix.Equal(a, want) {
		t.Errorf("a = %+v", a)
	}
	// Identity pivots are no-ops.
	Dlaswp(a, []int{0, 1, 2, 3}, 0)
	if !matrix.Equal(a, want) {
		t.Error("identity swaps changed the matrix")
	}
}

func TestLevel1(t *testing.T) {
	if Idamax(nil) != -1 {
		t.Error("Idamax(nil)")
	}
	if Idamax([]float64{1, -5, 5, 2}) != 1 { // ties to lowest index
		t.Error("Idamax tie-break")
	}
	v := []float64{1, 2}
	Dscal(3, v)
	if v[0] != 3 || v[1] != 6 {
		t.Error("Dscal")
	}
	y := []float64{1, 1}
	Daxpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Error("Daxpy")
	}
	if Ddot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Ddot")
	}
	m := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	SwapRows(m, 0, 1)
	if m.At(0, 0) != 3 {
		t.Error("SwapRows")
	}
	SwapRows(m, 1, 1) // no-op
	if m.At(1, 0) != 1 {
		t.Error("SwapRows self")
	}
}

func TestLevel1Panics(t *testing.T) {
	for name, f := range map[string]func(){
		"daxpy": func() { Daxpy(1, []float64{1}, []float64{1, 2}) },
		"ddot":  func() { Ddot([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestIdamaxCol(t *testing.T) {
	a := matrix.FromRows([][]float64{{5}, {-7}, {6}})
	if IdamaxCol(a, 0, 0) != 1 {
		t.Error("full column")
	}
	if IdamaxCol(a, 0, 2) != 2 {
		t.Error("restricted column")
	}
	if IdamaxCol(a, 0, 3) != -1 {
		t.Error("empty range")
	}
}

// Property: LU solve passes the HPL residual test for random systems.
func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw)%40
		a, b := matrix.RandomSystem(n, seed)
		lu := a.Clone()
		piv := make([]int, n)
		if err := Dgetrf(lu, piv, 4); err != nil {
			return true // singular random matrix: astronomically unlikely, skip
		}
		x := LUSolve(lu, piv, b)
		return matrix.Residual(a, x, b) < matrix.ResidualThreshold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: blocked and unblocked factorizations agree for any block size.
func TestDgetrfBlockInvarianceProperty(t *testing.T) {
	f := func(seed uint64, nbRaw uint8) bool {
		n := 15
		nb := 1 + int(nbRaw)%20
		a := matrix.RandomGeneral(n, n, seed)
		b1, b2 := a.Clone(), a.Clone()
		p1, p2 := make([]int, n), make([]int, n)
		if err := Dgetrf(b1, p1, nb); err != nil {
			return true
		}
		if err := Dgetf2(b2, p2); err != nil {
			return true
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return matrix.MaxDiff(b1, b2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSingularErrorReportsColumn(t *testing.T) {
	// Column 2 becomes a zero pivot: it is a copy of column 1.
	a := matrix.NewDense(4, 4)
	vals := [][]float64{
		{2, 1, 1, 3},
		{4, 3, 3, 1},
		{8, 7, 7, 9},
		{6, 7, 7, 8},
	}
	for i := range vals {
		copy(a.Row(i), vals[i])
	}
	err := Dgetf2(a.Clone(), make([]int, 4))
	var se *SingularError
	if !errors.As(err, &se) {
		t.Fatalf("want SingularError, got %v", err)
	}
	if se.Col != 2 {
		t.Errorf("offending column = %d, want 2", se.Col)
	}
	if !errors.Is(err, ErrSingular) {
		t.Error("SingularError must match ErrSingular")
	}
	// The blocked driver must report the same absolute column.
	err = Dgetrf(a.Clone(), make([]int, 4), 2)
	if !errors.As(err, &se) || se.Col != 2 {
		t.Errorf("Dgetrf column = %v, want 2", err)
	}
}

func TestSubnormalPivotIsDegenerate(t *testing.T) {
	// All candidate pivots in column 0 are subnormal: dividing by them
	// would overflow, so the column must be treated as singular.
	a := matrix.NewDense(2, 2)
	a.Set(0, 0, 1e-310)
	a.Set(1, 0, 2e-310)
	a.Set(0, 1, 1)
	a.Set(1, 1, 2)
	err := Dgetf2(a, make([]int, 2))
	var se *SingularError
	if !errors.As(err, &se) || se.Col != 0 {
		t.Fatalf("want SingularError{Col: 0}, got %v", err)
	}
	// No multiplier may have been formed by dividing by the subnormal.
	if v := a.At(1, 0); v != 2e-310 {
		t.Errorf("column scaled despite degenerate pivot: %v", v)
	}
}

func TestRecursiveSingularColumnOffset(t *testing.T) {
	// Duplicate columns force a zero pivot past the recursion split; the
	// reported column must be absolute, matching the unblocked kernel.
	n := 24
	a := matrix.RandomGeneral(n, n, 77)
	dup := 17
	for i := 0; i < n; i++ {
		a.Set(i, dup, a.At(i, dup-1))
	}
	errA := Dgetf2(a.Clone(), make([]int, n))
	errB := Dgetf2Recursive(a.Clone(), make([]int, n))
	var sa, sb *SingularError
	if !errors.As(errA, &sa) || !errors.As(errB, &sb) {
		t.Fatalf("both kernels must report SingularError: %v / %v", errA, errB)
	}
	if sa.Col != sb.Col {
		t.Errorf("recursive column %d != unblocked column %d", sb.Col, sa.Col)
	}
}
