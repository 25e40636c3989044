package blas

import (
	"math"
	"testing"
	"testing/quick"

	"phihpl/internal/matrix"
)

// dgemmRef is an obviously-correct triple loop used as oracle.
func dgemmRef(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense) {
	m, k := opDims(a, transA)
	_, n := opDims(b, transB)
	at := func(i, p int) float64 {
		if transA {
			return a.At(p, i)
		}
		return a.At(i, p)
	}
	bt := func(p, j int) float64 {
		if transB {
			return b.At(j, p)
		}
		return b.At(p, j)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func TestDgemmSmallKnown(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	b := matrix.FromRows([][]float64{{5, 6}, {7, 8}})
	c := matrix.NewDense(2, 2)
	Dgemm(false, false, 1, a, b, 0, c)
	want := matrix.FromRows([][]float64{{19, 22}, {43, 50}})
	if !matrix.Equal(c, want) {
		t.Errorf("C = %+v", c)
	}
}

func TestDgemmAlphaBeta(t *testing.T) {
	a := matrix.RandomGeneral(7, 5, 1)
	b := matrix.RandomGeneral(5, 9, 2)
	c0 := matrix.RandomGeneral(7, 9, 3)

	got := c0.Clone()
	Dgemm(false, false, 2.5, a, b, -0.5, got)
	want := c0.Clone()
	dgemmRef(false, false, 2.5, a, b, -0.5, want)
	if d := matrix.MaxDiff(got, want); d > 1e-12 {
		t.Errorf("maxdiff = %g", d)
	}
}

func TestDgemmTransposes(t *testing.T) {
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			m, n, k := 6, 8, 4
			var a, b *matrix.Dense
			if ta {
				a = matrix.RandomGeneral(k, m, 10)
			} else {
				a = matrix.RandomGeneral(m, k, 10)
			}
			if tb {
				b = matrix.RandomGeneral(n, k, 11)
			} else {
				b = matrix.RandomGeneral(k, n, 11)
			}
			c0 := matrix.RandomGeneral(m, n, 12)
			got, want := c0.Clone(), c0.Clone()
			Dgemm(ta, tb, 1.0, a, b, 1.0, got)
			dgemmRef(ta, tb, 1.0, a, b, 1.0, want)
			if d := matrix.MaxDiff(got, want); d > 1e-12 {
				t.Errorf("trans=%v,%v maxdiff = %g", ta, tb, d)
			}
		}
	}
}

func TestDgemmAlphaZeroSkipsProduct(t *testing.T) {
	a := matrix.RandomGeneral(3, 3, 1)
	b := matrix.RandomGeneral(3, 3, 2)
	c := matrix.RandomGeneral(3, 3, 3)
	want := c.Clone()
	Dgemm(false, false, 0, a, b, 1, c)
	if !matrix.Equal(c, want) {
		t.Error("alpha=0, beta=1 must leave C unchanged")
	}
	Dgemm(false, false, 0, a, b, 0, c)
	if c.MaxAbs() != 0 {
		t.Error("alpha=0, beta=0 must zero C")
	}
}

func TestDgemmOnViews(t *testing.T) {
	// Multiply sub-blocks of a larger matrix — the LU trailing-update shape.
	big := matrix.RandomGeneral(20, 20, 5)
	l21 := big.View(4, 0, 16, 4)
	u12 := big.View(0, 4, 4, 16)
	a22 := big.View(4, 4, 16, 16)
	ref := a22.Clone()
	dgemmRef(false, false, -1, l21.Clone(), u12.Clone(), 1, ref)
	RankKUpdate(l21, u12, a22, 1)
	if d := matrix.MaxDiff(a22.Clone(), ref); d > 1e-12 {
		t.Errorf("view update maxdiff = %g", d)
	}
}

func TestDgemmDimensionPanics(t *testing.T) {
	a := matrix.NewDense(2, 3)
	b := matrix.NewDense(4, 2) // mismatch: a.Cols=3 != b.Rows=4
	c := matrix.NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	Dgemm(false, false, 1, a, b, 0, c)
}

func TestDgemmEmpty(t *testing.T) {
	a := matrix.NewDense(0, 5)
	b := matrix.NewDense(5, 0)
	c := matrix.NewDense(0, 0)
	Dgemm(false, false, 1, a, b, 0, c) // must not panic
	a2 := matrix.NewDense(3, 0)
	b2 := matrix.NewDense(0, 4)
	c2 := matrix.RandomGeneral(3, 4, 9)
	Dgemm(false, false, 1, a2, b2, 0, c2) // k=0: C = 0
	if c2.MaxAbs() != 0 {
		t.Error("k=0 with beta=0 should zero C")
	}
}

// Property: Dgemm is linear in alpha.
func TestDgemmLinearityProperty(t *testing.T) {
	f := func(seed uint64, alphaRaw int8) bool {
		alpha := float64(alphaRaw) / 16
		a := matrix.RandomGeneral(6, 5, seed)
		b := matrix.RandomGeneral(5, 4, seed+1)
		c1 := matrix.NewDense(6, 4)
		Dgemm(false, false, alpha, a, b, 0, c1)
		c2 := matrix.NewDense(6, 4)
		Dgemm(false, false, 1, a, b, 0, c2)
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				if math.Abs(c1.At(i, j)-alpha*c2.At(i, j)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestDgemmTransposeIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := matrix.RandomGeneral(5, 7, seed)
		b := matrix.RandomGeneral(7, 6, seed^0xabc)
		ab := matrix.NewDense(5, 6)
		Dgemm(false, false, 1, a, b, 0, ab)
		btat := matrix.NewDense(6, 5)
		Dgemm(true, true, 1, b, a, 0, btat)
		return matrix.MaxDiff(transpose(ab), btat) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSgemmMatchesFloat64(t *testing.T) {
	m, n, k := 9, 7, 5
	ad := matrix.RandomGeneral(m, k, 31)
	bd := matrix.RandomGeneral(k, n, 32)
	cd := matrix.RandomGeneral(m, n, 33)
	a32 := make([]float32, m*k)
	b32 := make([]float32, k*n)
	c32 := make([]float32, m*n)
	for i := range a32 {
		a32[i] = float32(ad.Data[i])
	}
	for i := range b32 {
		b32[i] = float32(bd.Data[i])
	}
	for i := range c32 {
		c32[i] = float32(cd.Data[i])
	}
	Sgemm(m, n, k, 2, a32, k, b32, n, -1, c32, n)
	ref := cd.Clone()
	dgemmRef(false, false, 2, ad, bd, -1, ref)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(float64(c32[i*n+j])-ref.At(i, j)) > 1e-4 {
				t.Fatalf("sgemm (%d,%d) = %v want %v", i, j, c32[i*n+j], ref.At(i, j))
			}
		}
	}
}

func TestSgemmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for small ld")
		}
	}()
	Sgemm(2, 2, 2, 1, make([]float32, 4), 1, make([]float32, 4), 2, 0, make([]float32, 4), 2)
}
