// Package matrix provides dense row-major matrices, deterministic random
// fills, norms, and the HPL residual check used to validate every LU and
// HPL driver in this repository.
//
// Matrices are stored row-major, matching the paper's DGEMM convention
// (Section III footnote 3: a column-major product is obtained by swapping
// the operands). Sub-matrix views share the underlying storage, which is
// what the panel/trailing-update decomposition of LU requires.
package matrix

import (
	"fmt"
	"math"
)

// Float is the element-type set of the numeric core: matrix, pack and
// blas are written once over it and instantiated for float32 and float64.
type Float interface{ ~float32 | ~float64 }

// Of is a dense row-major matrix of T. Element (i,j) lives at
// Data[i*Stride+j]. An Of may be a view into a larger matrix, in which
// case Stride > Cols.
type Of[T Float] struct {
	Rows, Cols int
	Stride     int
	Data       []T
}

// Dense is the float64 matrix every FP64 driver works on. Dense32 is the
// storage type of the mixed-precision factorization path: the FP32
// factors hold half the bytes of their FP64 counterparts, which is the
// memory-traffic half of the paper's SGEMM advantage (Table II). Both are
// aliases of an instantiation, and Go declares no methods on one: every
// method below is a method of Of[T] and so exists for both.
type (
	Dense   = Of[float64]
	Dense32 = Of[float32]
)

// New allocates a zeroed Rows×Cols matrix of T.
func New[T Float](rows, cols int) *Of[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &Of[T]{Rows: rows, Cols: cols, Stride: cols, Data: make([]T, rows*cols)}
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense { return New[float64](rows, cols) }

// NewDense32 allocates a zeroed Rows×Cols single-precision matrix.
func NewDense32(rows, cols int) *Dense32 { return New[float32](rows, cols) }

// FromRows builds a matrix from a slice of equal-length rows (copying).
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("matrix: ragged rows")
		}
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], r)
	}
	return m
}

// At returns element (i,j).
func (m *Of[T]) At(i, j int) T { return m.Data[i*m.Stride+j] }

// Set assigns element (i,j).
func (m *Of[T]) Set(i, j int, v T) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice sharing storage (length Cols).
func (m *Of[T]) Row(i int) []T { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// View returns the r×c sub-matrix with upper-left corner (i,j), sharing
// storage with m.
func (m *Of[T]) View(i, j, r, c int) *Of[T] {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d,%d,%d) out of %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 {
		return &Of[T]{Rows: r, Cols: c, Stride: m.Stride}
	}
	off := i*m.Stride + j
	return &Of[T]{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[off : off+(r-1)*m.Stride+c]}
}

// Clone returns a compact (Stride==Cols) copy of m.
func (m *Of[T]) Clone() *Of[T] {
	out := New[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Of[T]) CopyFrom(src *Of[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("matrix: CopyFrom dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element to 0.
func (m *Of[T]) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// convert returns a compact copy of m with every element converted to D.
func convert[D, S Float](m *Of[S]) *Of[D] {
	out := New[D](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		dst := out.Row(i)
		for j, v := range m.Row(i) {
			dst[j] = D(v)
		}
	}
	return out
}

// ToDense32 rounds m to single precision (round-to-nearest per element),
// the demotion step that starts a mixed-precision solve.
func (m *Of[T]) ToDense32() *Dense32 { return convert[float32](m) }

// ToDense widens m to double precision (exact: every float32 is
// representable in float64).
func (m *Of[T]) ToDense() *Dense { return convert[float64](m) }

// Eye returns the n×n identity.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Equal reports exact element-wise equality of dimensions and values.
func Equal[T Float](a, b *Of[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

// MaxDiff returns the largest |a-b| over all elements; dimensions must match.
func MaxDiff[T Float](a, b *Of[T]) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("matrix: MaxDiff dimension mismatch")
	}
	d := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if v := math.Abs(float64(ra[j] - rb[j])); v > d {
				d = v
			}
		}
	}
	return d
}

// NormInf returns the infinity norm (max absolute row sum).
func (m *Of[T]) NormInf() float64 {
	n := 0.0
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for _, v := range m.Row(i) {
			s += math.Abs(float64(v))
		}
		if s > n {
			n = s
		}
	}
	return n
}

// MaxAbs returns the largest absolute element.
func (m *Of[T]) MaxAbs() float64 {
	n := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(float64(v)); a > n {
				n = a
			}
		}
	}
	return n
}

// MulVec computes y = A*x. len(x) must be A.Cols; the result has length
// A.Rows.
func (m *Of[T]) MulVec(x []T) []T {
	if len(x) != m.Cols {
		panic("matrix: MulVec dimension mismatch")
	}
	y := make([]T, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s T
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// VecNormInf returns max |v_i|.
func VecNormInf(v []float64) float64 {
	n := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > n {
			n = a
		}
	}
	return n
}

// Residual computes the scaled HPL residual
//
//	||Ax-b||_inf / (eps * (||A||_inf * ||x||_inf + ||b||_inf) * n)
//
// which HPL declares PASSED when below the threshold 16.0. A must be the
// original (unfactored) matrix.
func Residual(a *Dense, x, b []float64) float64 { return DenseSystem(a, b).Residual(x) }

// ResidualThreshold is the HPL pass/fail threshold for the scaled residual.
const ResidualThreshold = 16.0

// machEps is the double-precision machine epsilon (2^-52), as used by HPL.
const machEps = 2.220446049250313e-16
