package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseAndAccess(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("bad dense: %+v", m)
	}
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	if m.Data[1*4+2] != 7.5 {
		t.Errorf("row-major layout violated")
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative dims")
		}
	}()
	NewDense(-1, 2)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows wrong: %+v", m)
	}
	if FromRows(nil).Rows != 0 {
		t.Errorf("empty FromRows")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestViewSharesStorage(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	})
	v := m.View(1, 1, 2, 2)
	if v.At(0, 0) != 6 || v.At(1, 1) != 11 {
		t.Fatalf("view content wrong: %v %v", v.At(0, 0), v.At(1, 1))
	}
	v.Set(0, 0, 60)
	if m.At(1, 1) != 60 {
		t.Errorf("view must share storage")
	}
	if v.Stride != 4 {
		t.Errorf("view stride = %d, want parent stride 4", v.Stride)
	}
}

func TestViewEmptyAndOOB(t *testing.T) {
	m := NewDense(2, 2)
	v := m.View(1, 1, 0, 0)
	if v.Rows != 0 || v.Cols != 0 {
		t.Errorf("empty view dims wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds view")
		}
	}()
	m.View(1, 1, 2, 2)
}

func TestCloneAndCopyFrom(t *testing.T) {
	m := RandomGeneral(5, 7, 1)
	c := m.Clone()
	if !Equal(m, c) {
		t.Fatal("clone not equal")
	}
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("clone shares storage")
	}
	d := NewDense(5, 7)
	d.CopyFrom(m)
	if !Equal(d, m) {
		t.Error("CopyFrom mismatch")
	}
	// Clone of a view is compact.
	v := m.View(1, 2, 3, 4).Clone()
	if v.Stride != v.Cols {
		t.Errorf("clone of view should be compact, stride=%d", v.Stride)
	}
}

func TestZeroAndEye(t *testing.T) {
	m := RandomGeneral(4, 4, 2)
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Error("Zero failed")
	}
	e := Eye(3)
	if e.At(0, 0) != 1 || e.At(1, 1) != 1 || e.At(0, 1) != 0 {
		t.Error("Eye wrong")
	}
	if e.NormInf() != 1 {
		t.Error("identity norms wrong")
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{
		{1, -2},
		{-3, 4},
	})
	if m.NormInf() != 7 { // max row sum = 3+4
		t.Errorf("NormInf = %v, want 7", m.NormInf())
	}
	if m.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %v, want 4", m.MaxAbs())
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2},
		{3, 4},
	})
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestVecNorms(t *testing.T) {
	v := []float64{1, -3, 2}
	if VecNormInf(v) != 3 {
		t.Error("VecNormInf")
	}
}

func TestMaxDiff(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.5, 2}})
	if MaxDiff(a, b) != 0.5 {
		t.Errorf("MaxDiff = %v", MaxDiff(a, b))
	}
}

func TestResidualExactSolution(t *testing.T) {
	// For x solving Ax=b exactly, residual is 0.
	a := FromRows([][]float64{
		{2, 0},
		{0, 4},
	})
	x := []float64{1, 2}
	b := a.MulVec(x)
	if r := Residual(a, x, b); r != 0 {
		t.Errorf("residual of exact solution = %v", r)
	}
}

func TestResidualPerturbedSolution(t *testing.T) {
	a, b := RandomSystem(50, 42)
	// A deliberately wrong x should produce an enormous scaled residual.
	x := make([]float64, 50)
	for i := range x {
		x[i] = 1
	}
	if r := Residual(a, x, b); r < ResidualThreshold {
		t.Errorf("garbage solution passed residual check: %v", r)
	}
}

func TestResidualZeroDenominator(t *testing.T) {
	a := NewDense(2, 2)
	x := []float64{0, 0}
	b := []float64{0, 0}
	if r := Residual(a, x, b); r != 0 {
		t.Errorf("all-zero system residual = %v", r)
	}
	b[0] = 1
	// With b nonzero the denominator is nonzero; the inconsistent system
	// must fail the check by a huge margin.
	if r := Residual(a, x, b); r < 1e12 {
		t.Errorf("inconsistent zero system residual = %v, want huge", r)
	}
	if Residual(NewDense(0, 0), nil, nil) != 0 {
		t.Error("empty system residual should be 0")
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a := RandomGeneral(10, 10, 7)
	b := RandomGeneral(10, 10, 7)
	if !Equal(a, b) {
		t.Error("same seed must give same matrix")
	}
	c := RandomGeneral(10, 10, 8)
	if Equal(a, c) {
		t.Error("different seeds should differ")
	}
}

func TestPRNGRange(t *testing.T) {
	p := NewPRNG(1)
	for i := 0; i < 10000; i++ {
		v := p.Float64()
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	for i := 0; i < 1000; i++ {
		if n := p.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
}

func TestPRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Intn(0)")
		}
	}()
	NewPRNG(1).Intn(0)
}

func TestPRNGMeanRoughlyZero(t *testing.T) {
	p := NewPRNG(123)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += p.Float64()
	}
	if mean := sum / n; math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
}

func TestRandomSystemShapes(t *testing.T) {
	a, b := RandomSystem(17, 3)
	if a.Rows != 17 || a.Cols != 17 || len(b) != 17 {
		t.Error("RandomSystem shapes wrong")
	}
	if len(RandomVector(5, 1)) != 5 {
		t.Error("RandomVector length")
	}
}

// Property: views are consistent with parent indexing.
func TestViewIndexingProperty(t *testing.T) {
	f := func(seed uint64, i0, j0, r0, c0 uint8) bool {
		m := RandomGeneral(12, 9, seed)
		i, j := int(i0)%6, int(j0)%4
		r, c := 1+int(r0)%(12-6), 1+int(c0)%(9-4)
		v := m.View(i, j, r, c)
		for ii := 0; ii < r; ii++ {
			for jj := 0; jj < c; jj++ {
				if v.At(ii, jj) != m.At(i+ii, j+jj) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: NormInf(A) >= MaxAbs(A) for matrices with at least one column.
func TestNormDominanceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		m := RandomGeneral(8, 8, seed)
		return m.NormInf() >= m.MaxAbs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
