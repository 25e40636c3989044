package blas

import "phihpl/internal/matrix"

// Side selects whether the triangular matrix multiplies from the left or
// the right in Dtrsm.
type Side int

// Uplo selects the triangle of the coefficient matrix that is referenced.
type Uplo int

// Diag declares whether the triangular matrix has an implicit unit diagonal.
type Diag int

const (
	// Left solves op(T)·X = alpha·B.
	Left Side = iota
	// Right solves X·op(T) = alpha·B.
	Right
)

const (
	// Lower references the lower triangle of T.
	Lower Uplo = iota
	// Upper references the upper triangle of T.
	Upper
)

const (
	// NonUnit uses the stored diagonal of T.
	NonUnit Diag = iota
	// Unit assumes an implicit unit diagonal (the L factor of LU).
	Unit
)

// Trsm solves a triangular system in place, overwriting B with the
// solution X:
//
//	Left:  op(T)·X = alpha·B
//	Right: X·op(T) = alpha·B
//
// T must be square and is referenced only in the triangle selected by uplo;
// trans applies op(T)=Tᵀ. This covers every case Linpack needs: the
// L·U_panel forward solve (Left/Lower/Unit), back substitution with U
// (Left/Upper/NonUnit) and the right-side updates used by left-looking
// variants.
func Trsm[T matrix.Float](side Side, uplo Uplo, trans bool, diag Diag, alpha T, t, b *matrix.Of[T]) {
	if t.Rows != t.Cols {
		panic("blas: Trsm triangular matrix must be square")
	}
	n := t.Rows
	if (side == Left && b.Rows != n) || (side == Right && b.Cols != n) {
		panic("blas: Trsm dimension mismatch")
	}
	if trans {
		// op(T) = Tᵀ: materialize the transpose once and flip the triangle.
		t = transpose(t)
		if uplo == Lower {
			uplo = Upper
		} else {
			uplo = Lower
		}
	}
	if alpha != 1 {
		for i := 0; i < b.Rows; i++ {
			scal(alpha, b.Row(i))
		}
	}
	switch {
	case side == Left && uplo == Lower:
		// Forward substitution over rows of B.
		for i := 0; i < n; i++ {
			bi := b.Row(i)
			ti := t.Row(i)
			for k := 0; k < i; k++ {
				if lik := ti[k]; lik != 0 {
					axpy(-lik, b.Row(k), bi)
				}
			}
			if diag == NonUnit {
				div(bi, ti[i])
			}
		}
	case side == Left && uplo == Upper:
		// Back substitution over rows of B.
		for i := n - 1; i >= 0; i-- {
			bi := b.Row(i)
			ti := t.Row(i)
			for k := i + 1; k < n; k++ {
				if uik := ti[k]; uik != 0 {
					axpy(-uik, b.Row(k), bi)
				}
			}
			if diag == NonUnit {
				div(bi, ti[i])
			}
		}
	case side == Right && uplo == Upper:
		// X·U = B: columns of X depend on previous columns.
		for j := 0; j < n; j++ {
			for i := 0; i < b.Rows; i++ {
				bi := b.Row(i)
				s := bi[j]
				for k := 0; k < j; k++ {
					s -= bi[k] * t.At(k, j)
				}
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				bi[j] = s
			}
		}
	case side == Right && uplo == Lower:
		// X·L = B: columns resolve from the last to the first.
		for j := n - 1; j >= 0; j-- {
			for i := 0; i < b.Rows; i++ {
				bi := b.Row(i)
				s := bi[j]
				for k := j + 1; k < n; k++ {
					s -= bi[k] * t.At(k, j)
				}
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				bi[j] = s
			}
		}
	}
}

// Dtrsm is Trsm in double precision.
func Dtrsm(side Side, uplo Uplo, trans bool, diag Diag, alpha float64, t, b *matrix.Dense) {
	Trsm(side, uplo, trans, diag, alpha, t, b)
}

// div divides a row elementwise (reference-BLAS semantics: a true divide,
// not a multiply by the reciprocal, so solves match LUSolve bit for bit).
func div[T matrix.Float](v []T, d T) {
	for i := range v {
		v[i] /= d
	}
}
