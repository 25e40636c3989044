package blas

import (
	"testing"
	"testing/quick"

	"phihpl/internal/matrix"
)

// randTriangular returns a well-conditioned triangular matrix: random
// entries in the selected triangle with the diagonal pushed away from zero.
func randTriangular(n int, uplo Uplo, diag Diag, seed uint64) *matrix.Dense {
	t := matrix.RandomGeneral(n, n, seed)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inTri := (uplo == Lower && j <= i) || (uplo == Upper && j >= i)
			if !inTri {
				t.Set(i, j, 0)
			}
		}
		if diag == NonUnit {
			t.Set(i, i, 2+t.At(i, i)) // |diag| >= 1.5
		} else {
			t.Set(i, i, 1)
		}
	}
	return t
}

// checkTrsm verifies op-side multiplication of the solution reproduces B.
func checkTrsm(t *testing.T, side Side, uplo Uplo, trans bool, diag Diag, n, m int, seed uint64) {
	t.Helper()
	tri := randTriangular(n, uplo, diag, seed)
	var b *matrix.Dense
	if side == Left {
		b = matrix.RandomGeneral(n, m, seed+100)
	} else {
		b = matrix.RandomGeneral(m, n, seed+100)
	}
	x := b.Clone()
	alpha := 1.5
	Dtrsm(side, uplo, trans, diag, alpha, tri, x)
	// Recompute alpha*B from the solution.
	var recon *matrix.Dense
	if side == Left {
		recon = matrix.NewDense(n, m)
		Dgemm(trans, false, 1, tri, x, 0, recon)
	} else {
		recon = matrix.NewDense(m, n)
		Dgemm(false, trans, 1, x, tri, 0, recon)
	}
	scaled := b.Clone()
	for i := 0; i < scaled.Rows; i++ {
		Dscal(alpha, scaled.Row(i))
	}
	if d := matrix.MaxDiff(recon, scaled); d > 1e-9 {
		t.Errorf("side=%v uplo=%v trans=%v diag=%v: residual %g", side, uplo, trans, diag, d)
	}
}

func TestDtrsmAllCases(t *testing.T) {
	seed := uint64(1)
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []bool{false, true} {
				for _, diag := range []Diag{NonUnit, Unit} {
					seed++
					checkTrsm(t, side, uplo, trans, diag, 9, 7, seed)
				}
			}
		}
	}
}

func TestDtrsmUnitDiagonalIgnoresStoredDiag(t *testing.T) {
	// With Diag=Unit the stored diagonal must not be referenced.
	tri := randTriangular(5, Lower, Unit, 42)
	b := matrix.RandomGeneral(5, 3, 43)
	x1 := b.Clone()
	Dtrsm(Left, Lower, false, Unit, 1, tri, x1)
	for i := 0; i < 5; i++ {
		tri.Set(i, i, 1e30) // garbage diagonal
	}
	x2 := b.Clone()
	Dtrsm(Left, Lower, false, Unit, 1, tri, x2)
	if !matrix.Equal(x1, x2) {
		t.Error("unit-diagonal solve read the stored diagonal")
	}
}

func TestDtrsmPanics(t *testing.T) {
	rect := matrix.NewDense(3, 4)
	b := matrix.NewDense(3, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-square T")
			}
		}()
		Dtrsm(Left, Lower, false, Unit, 1, rect, b)
	}()
	tri := matrix.NewDense(4, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for B row mismatch")
			}
		}()
		Dtrsm(Left, Lower, false, Unit, 1, tri, b)
	}()
}

func TestDtrsmRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n, m := 6, 5
		tri := randTriangular(n, Lower, Unit, seed)
		b := matrix.RandomGeneral(n, m, seed^0xf00d)
		x := b.Clone()
		Dtrsm(Left, Lower, false, Unit, 1, tri, x)
		recon := matrix.NewDense(n, m)
		Dgemm(false, false, 1, tri, x, 0, recon)
		return matrix.MaxDiff(recon, b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
