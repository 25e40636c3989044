package blas

import (
	"testing"
	"testing/quick"

	"phihpl/internal/matrix"
)

// --- recursive panel factorization --------------------------------------

func TestRecursiveMatchesUnblocked(t *testing.T) {
	for _, shape := range []struct{ m, n int }{
		{8, 8}, {16, 16}, {40, 40}, {100, 24}, {64, 17}, {33, 33}, {200, 48},
	} {
		a := matrix.RandomGeneral(shape.m, shape.n, uint64(shape.m*shape.n))
		mn := shape.m
		if shape.n < mn {
			mn = shape.n
		}
		rec := a.Clone()
		recPiv := make([]int, mn)
		if err := Dgetf2Recursive(rec, recPiv); err != nil {
			t.Fatalf("%+v: %v", shape, err)
		}
		ref := a.Clone()
		refPiv := make([]int, mn)
		if err := Dgetf2(ref, refPiv); err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(rec, ref) {
			t.Errorf("%+v: recursive factors differ (maxdiff %g)", shape, matrix.MaxDiff(rec, ref))
		}
		for i := range refPiv {
			if recPiv[i] != refPiv[i] {
				t.Errorf("%+v: pivot %d: %d vs %d", shape, i, recPiv[i], refPiv[i])
				break
			}
		}
	}
}

func TestRecursiveSmallFallsThrough(t *testing.T) {
	a := matrix.RandomGeneral(6, 4, 3)
	piv := make([]int, 4)
	if err := Dgetf2Recursive(a, piv); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveSingular(t *testing.T) {
	a := matrix.NewDense(20, 20)
	piv := make([]int, 20)
	if err := Dgetf2Recursive(a, piv); err == nil {
		t.Error("expected singularity error")
	}
}

func TestRecursivePivLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dgetf2Recursive(matrix.NewDense(10, 10), make([]int, 9))
}

// Property: recursive == unblocked for random tall panels.
func TestRecursiveEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, mR, nR uint8) bool {
		m := 9 + int(mR)%80
		n := 9 + int(nR)%30
		if n > m {
			n = m
		}
		a := matrix.RandomGeneral(m, n, seed)
		r1, r2 := a.Clone(), a.Clone()
		p1, p2 := make([]int, n), make([]int, n)
		e1 := Dgetf2Recursive(r1, p1)
		e2 := Dgetf2(r2, p2)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if !matrix.Equal(r1, r2) {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
