package blas

import (
	"errors"
	"math"
	"testing"

	"phihpl/internal/matrix"
)

// reconstruct32 computes P·L·U from the packed factors, widened to
// float64 for comparison against the original.
func reconstruct32(lu *matrix.Dense32, piv []int) *matrix.Dense {
	n := lu.Rows
	m := lu.Cols
	l := matrix.NewDense(n, n)
	u := matrix.NewDense(n, m)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < m; j++ {
			v := float64(lu.At(i, j))
			if j < i {
				l.Set(i, j, v)
			} else {
				u.Set(i, j, v)
			}
		}
	}
	prod := matrix.NewDense(n, m)
	Dgemm(false, false, 1, l, u, 0, prod)
	// Undo the row swaps in reverse order to recover P·L·U.
	for k := len(piv) - 1; k >= 0; k-- {
		if piv[k] != k {
			SwapRows(prod, k, piv[k])
		}
	}
	return prod
}

// TestSgetf2ReconstructsAndPivots: the unblocked FP32 panel factorization
// must produce in-range pivots, multipliers bounded by 1, and P·L·U
// within single-precision forward error of the input.
func TestSgetf2ReconstructsAndPivots(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{8, 8}, {20, 6}, {1, 1}, {31, 15}} {
		orig64 := matrix.RandomGeneral(sh.m, sh.n, uint64(sh.m*31+sh.n))
		a := orig64.ToDense32()
		orig := a.ToDense() // the exact FP32-rounded input
		mn := sh.m
		if sh.n < mn {
			mn = sh.n
		}
		piv := make([]int, mn)
		if err := Sgetf2(a, piv); err != nil {
			t.Fatalf("%+v: unexpected singularity: %v", sh, err)
		}
		for k, p := range piv {
			if p < k || p >= sh.m {
				t.Fatalf("%+v: pivot %d out of range: %d", sh, k, p)
			}
		}
		for i := 0; i < sh.m; i++ {
			for j := 0; j < i && j < sh.n; j++ {
				if v := a.At(i, j); v > 1+1e-5 || v < -1-1e-5 {
					t.Fatalf("%+v: multiplier (%d,%d)=%v exceeds 1", sh, i, j, v)
				}
			}
		}
		recon := reconstruct32(a, piv)
		tol := 1e-4 * (1 + orig.MaxAbs()) * float64(mn)
		if d := matrix.MaxDiff(recon, orig); d > tol {
			t.Fatalf("%+v: reconstruction error %g > %g", sh, d, tol)
		}
	}
}

// TestSgetf2MatchesDgetf2Pivots: on a matrix whose column maxima are well
// separated, the FP32 and FP64 panel factorizations must choose the same
// pivot rows — rounding to float32 cannot flip a comparison that isn't
// within eps32 of a tie.
func TestSgetf2MatchesDgetf2Pivots(t *testing.T) {
	n := 24
	a64 := matrix.RandomGeneral(n, n, 77)
	// Separate magnitudes decisively: row i scaled by 1 + i/4.
	for i := 0; i < n; i++ {
		row := a64.Row(i)
		for j := range row {
			row[j] *= 1 + float64((i*7)%n)/4
		}
	}
	a32 := a64.ToDense32()
	piv64 := make([]int, n)
	piv32 := make([]int, n)
	if err := Dgetf2(a64, piv64); err != nil {
		t.Fatal(err)
	}
	if err := Sgetf2(a32, piv32); err != nil {
		t.Fatal(err)
	}
	for k := range piv64 {
		if piv64[k] != piv32[k] {
			t.Fatalf("pivot %d: fp64 chose %d, fp32 chose %d", k, piv64[k], piv32[k])
		}
	}
}

// TestSgetf2Singular: a zero column yields a typed *SingularError carrying
// the column, matching ErrSingular under errors.Is, and the factorization
// continues past it.
func TestSgetf2Singular(t *testing.T) {
	n := 6
	a := randomDense32(n, n, 9)
	for i := 0; i < n; i++ {
		a.Set(i, 2, 0)
	}
	// Make the pivot search deterministic despite the zero column: after
	// eliminating columns 0-1 the column-2 slice stays exactly zero only if
	// the eliminations contribute zero, so zero the feeding entries too.
	for i := 0; i < n; i++ {
		a.Set(i, 0, 0)
		a.Set(i, 1, 0)
	}
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	piv := make([]int, n)
	err := Sgetf2(a, piv)
	if err == nil {
		t.Fatal("expected singularity")
	}
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	var se *SingularError
	if !errors.As(err, &se) || se.Col != 2 {
		t.Fatalf("err = %v, want *SingularError{Col: 2}", err)
	}
}

// TestStrsmMatchesSubstitution: all four side/uplo cases, with and
// without transpose and unit diagonal, must satisfy op(T)·X = alpha·B
// (or X·op(T) = alpha·B) within single-precision forward error.
func TestStrsmMatchesSubstitution(t *testing.T) {
	n, m := 12, 7
	mkTri := func(uplo Uplo, diag Diag, seed uint64) *matrix.Dense32 {
		tm := randomDense32(n, n, seed)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (uplo == Lower && j > i) || (uplo == Upper && j < i) {
					tm.Set(i, j, 0)
				}
			}
			// Dominant diagonal keeps the solve well conditioned.
			if diag == NonUnit {
				tm.Set(i, i, 2+tm.At(i, i))
			} else {
				tm.Set(i, i, 1)
			}
		}
		return tm
	}
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []bool{false, true} {
				for _, diag := range []Diag{NonUnit, Unit} {
					tm := mkTri(uplo, diag, uint64(17+int(side)*2+int(uplo)))
					br, bc := n, m
					if side == Right {
						br, bc = m, n
					}
					b0 := randomDense32(br, bc, 33)
					x := b0.Clone()
					const alpha = float32(1.5)
					Trsm(side, uplo, trans, diag, alpha, tm, x)

					// Verify op(T)·X (or X·op(T)) ≈ alpha·B in float64.
					t64 := tm.ToDense()
					x64 := x.ToDense()
					var prod *matrix.Dense
					if side == Left {
						prod = matrix.NewDense(br, bc)
						Dgemm(trans, false, 1, t64, x64, 0, prod)
					} else {
						prod = matrix.NewDense(br, bc)
						Dgemm(false, trans, 1, x64, t64, 0, prod)
					}
					for i := 0; i < br; i++ {
						for j := 0; j < bc; j++ {
							want := float64(alpha) * float64(b0.At(i, j))
							if d := math.Abs(prod.At(i, j) - want); d > 2e-4 {
								t.Fatalf("side=%v uplo=%v trans=%v diag=%v: (%d,%d) residual %g",
									side, uplo, trans, diag, i, j, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestSgetrfMatchesUnblocked: the blocked FP32 factorization must agree
// with the unblocked panel factorization on pivots and produce a
// reconstruction within single-precision error, for block sizes that do
// and do not divide n.
func TestSgetrfMatchesUnblocked(t *testing.T) {
	n := 96
	base := matrix.RandomGeneral(n, n, 5).ToDense32()
	ref := base.Clone()
	pivRef := make([]int, n)
	if err := Sgetf2(ref, pivRef); err != nil {
		t.Fatal(err)
	}
	for _, nb := range []int{8, 32, 40, 96, 200} {
		a := base.Clone()
		piv := make([]int, n)
		if err := Sgetrf(a, piv, nb, 3); err != nil {
			t.Fatalf("nb=%d: %v", nb, err)
		}
		for k := range piv {
			if piv[k] != pivRef[k] {
				t.Fatalf("nb=%d: pivot %d: %d vs unblocked %d", nb, k, piv[k], pivRef[k])
			}
		}
		recon := reconstruct32(a, piv)
		orig := base.ToDense()
		tol := 1e-3 * (1 + orig.MaxAbs()) * float64(n)
		if d := matrix.MaxDiff(recon, orig); d > tol {
			t.Fatalf("nb=%d: reconstruction error %g > %g", nb, d, tol)
		}
	}
}

// TestSgetrfWorkerInvariance: the blocked FP32 factorization is bitwise
// identical for any worker count — the determinism contract inherited
// from SgemmPacked's partition invariance.
func TestSgetrfWorkerInvariance(t *testing.T) {
	n := 128
	base := matrix.RandomGeneral(n, n, 12).ToDense32()
	ref := base.Clone()
	pivRef := make([]int, n)
	if err := Sgetrf(ref, pivRef, 32, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		a := base.Clone()
		piv := make([]int, n)
		if err := Sgetrf(a, piv, 32, workers); err != nil {
			t.Fatal(err)
		}
		if !equal32(a, ref) {
			t.Fatalf("workers=%d: factors differ bitwise", workers)
		}
		for k := range piv {
			if piv[k] != pivRef[k] {
				t.Fatalf("workers=%d: pivot %d differs", workers, k)
			}
		}
	}
}

// TestSgetrfSingularOffset: a singular column inside a later panel is
// reported with its global column index.
func TestSgetrfSingularOffset(t *testing.T) {
	n := 16
	a := matrix.NewDense32(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	// Kill column 10 entirely (diagonal included): with an identity
	// elsewhere nothing refills it during elimination.
	a.Set(10, 10, 0)
	piv := make([]int, n)
	err := Sgetrf(a, piv, 4, 2)
	var se *SingularError
	if !errors.As(err, &se) || se.Col != 10 {
		t.Fatalf("err = %v, want *SingularError{Col: 10}", err)
	}
}

// TestLUSolveMixedAccuracy: FP32 factors + FP64 substitution recover the
// FP64 solution to single-precision relative accuracy on a
// well-conditioned system. (The HPL residual test scales by the *double*
// epsilon, so a raw mixed substitution does NOT pass it — that gap is
// exactly what lu.SolveMixed's FP64 refinement closes.)
func TestLUSolveMixedAccuracy(t *testing.T) {
	n := 64
	a, b := matrix.RandomSystem(n, 21)
	a32 := a.ToDense32()
	piv := make([]int, n)
	if err := Sgetrf(a32, piv, 16, 2); err != nil {
		t.Fatal(err)
	}
	x := LUSolve(a32, piv, b)

	lu64 := a.Clone()
	piv64 := make([]int, n)
	if err := Dgetrf(lu64, piv64, 16); err != nil {
		t.Fatal(err)
	}
	want := LUSolve(lu64, piv64, b)
	var norm, diff float64
	for i := range x {
		if v := math.Abs(want[i]); v > norm {
			norm = v
		}
		if d := math.Abs(x[i] - want[i]); d > diff {
			diff = d
		}
	}
	if diff > 1e-3*(norm+1) {
		t.Fatalf("mixed solve off by %g (‖x‖ = %g), beyond FP32 accuracy", diff, norm)
	}
}

// TestLUSolveMixedDimensionPanics pins the guard contract.
func TestLUSolveMixedDimensionPanics(t *testing.T) {
	lu := matrix.NewDense32(3, 3)
	for i := 0; i < 3; i++ {
		lu.Set(i, i, 1)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	LUSolve(lu, make([]int, 3), make([]float64, 2))
}
