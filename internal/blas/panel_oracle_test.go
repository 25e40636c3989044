package blas

import (
	"errors"
	"math"
	"os"
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

// dgetf2Ref is the column-at-a-time unblocked elimination Dgetf2 ran
// before it was fused and moved into a contiguous copy: pivot search,
// swap, scale the column, then update the trailing rows, all in place on
// the (possibly strided) view. It is the oracle the fused kernel must
// match bit for bit — factors, pivots and the reported singular column.
func dgetf2Ref(a *matrix.Dense, piv []int) error {
	m, n := a.Rows, a.Cols
	var err error
	for k := range piv {
		p := IdamaxCol(a, k, k)
		piv[k] = p
		if pv := a.At(p, k); pv == 0 || math.Abs(pv) < minNormal {
			if err == nil {
				err = &SingularError{Col: k}
			}
			continue
		}
		SwapRows(a, k, p)
		akk := a.At(k, k)
		for i := k + 1; i < m; i++ {
			a.Set(i, k, a.At(i, k)/akk)
		}
		rowK := a.Row(k)
		for i := k + 1; i < m; i++ {
			lik := a.At(i, k)
			if lik == 0 {
				continue
			}
			rowI := a.Row(i)
			for j := k + 1; j < n; j++ {
				rowI[j] -= lik * rowK[j]
			}
		}
	}
	return err
}

// sameBits reports x and y equal as bit patterns, with every NaN equal to
// every other: which payload or sign a NaN carries depends on operand
// order inside one multiply or add, which neither Go nor the contract
// pins down; *where* a NaN appears is pinned.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// assertDgetf2MatchesRef factors one clone of a with each kernel and
// requires identical factors, pivots and error. strided embeds the panel
// in a wider matrix first, so Dgetf2 takes its copy-in/copy-out route and
// must leave the columns beside the panel untouched.
func assertDgetf2MatchesRef(t *testing.T, tag string, a *matrix.Dense, strided bool) {
	t.Helper()
	m, n := a.Rows, a.Cols
	got, want := a.Clone(), a.Clone()
	if strided {
		const pad = 3
		host := matrix.RandomGeneral(m, n+2*pad, 12345)
		got = host.View(0, pad, m, n)
		got.CopyFrom(a)
		before := host.Clone()
		defer func() {
			for i := 0; i < m; i++ {
				for j := 0; j < n+2*pad; j++ {
					if (j < pad || j >= pad+n) && !sameBits(host.At(i, j), before.At(i, j)) {
						t.Fatalf("%s: Dgetf2 wrote outside its view at (%d,%d)", tag, i, j)
					}
				}
			}
		}()
	}
	mn := min(m, n)
	gotPiv, wantPiv := make([]int, mn), make([]int, mn)
	gotErr := Dgetf2(got, gotPiv)
	wantErr := dgetf2Ref(want, wantPiv)

	var gs, ws *SingularError
	if errors.As(gotErr, &gs) != errors.As(wantErr, &ws) || (gs != nil && gs.Col != ws.Col) {
		t.Fatalf("%s: err = %v, reference %v", tag, gotErr, wantErr)
	}
	for k := range wantPiv {
		if gotPiv[k] != wantPiv[k] {
			t.Fatalf("%s: piv[%d] = %d, reference %d", tag, k, gotPiv[k], wantPiv[k])
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if !sameBits(got.At(i, j), want.At(i, j)) {
				t.Fatalf("%s: factor (%d,%d) = %v, reference %v", tag, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestDgetf2MatchesUnblockedReference pins the fused, cache-resident panel
// kernel to the loop it replaced over the shapes and special values the
// drivers can hand it, each as a contiguous matrix and as a strided view.
func TestDgetf2MatchesUnblockedReference(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		a    *matrix.Dense
	}{
		{"tall 40x7 (w%4!=0)", matrix.RandomGeneral(40, 7, 1)},
		{"tall 96x16", matrix.RandomGeneral(96, 16, 2)},
		{"square 33x33", matrix.RandomGeneral(33, 33, 3)},
		{"wide 5x12 (m<n)", matrix.RandomGeneral(5, 12, 4)},
		{"one column 17x1", matrix.RandomGeneral(17, 1, 5)},
		{"one row 1x9", matrix.RandomGeneral(1, 9, 6)},
		{"1x1", matrix.RandomGeneral(1, 1, 7)},
		{"exact ties in |pivot|", func() *matrix.Dense {
			a := matrix.RandomGeneral(12, 6, 8)
			for i := 0; i < 12; i++ {
				// Column 0: ±2 everywhere, so the lowest row must win; the
				// updates then make column 1 tie-prone as well.
				a.Set(i, 0, 2*float64(1-2*(i%2)))
				a.Set(i, 1, 0.5)
			}
			return a
		}()},
		{"zero column mid-panel", func() *matrix.Dense {
			a := matrix.RandomGeneral(20, 8, 9)
			for i := 0; i < 20; i++ {
				a.Set(i, 3, a.At(i, 2)) // duplicate → exact zero pivot at k=3
			}
			return a
		}()},
		{"subnormal column mid-panel", func() *matrix.Dense {
			a := matrix.Eye(10).View(0, 0, 10, 6).Clone()
			for i := 2; i < 10; i++ {
				a.Set(i, 2, float64(i)*1e-310)
			}
			a.Set(2, 2, 0)
			a.Set(7, 4, 3) // a later, healthy column with a real swap
			return a
		}()},
		{"NaN in the pivot column", func() *matrix.Dense {
			a := matrix.RandomGeneral(14, 5, 10)
			a.Set(6, 0, math.NaN()) // not the search's first row: never chosen
			a.Set(2, 2, math.NaN()) // becomes a first row once k reaches 2
			return a
		}()},
		{"NaN in the first search row", func() *matrix.Dense {
			a := matrix.RandomGeneral(9, 4, 11)
			a.Set(0, 0, math.NaN())
			return a
		}()},
		{"Inf beside a zero multiplier", func() *matrix.Dense {
			a := matrix.RandomGeneral(8, 5, 12)
			a.Set(0, 0, 4) // the pivot row, carrying ±Inf in its tail
			a.Set(0, 2, inf)
			a.Set(0, 3, -inf)
			for i := 1; i < 8; i++ {
				a.Set(i, 0, float64(i%2)) // every other multiplier is exactly 0
			}
			return a
		}()},
	}
	for _, c := range cases {
		assertDgetf2MatchesRef(t, c.name+"/contiguous", c.a, false)
		assertDgetf2MatchesRef(t, c.name+"/strided", c.a, true)
	}
}

// TestLevel1DispatchFollowsKernelGates asserts the dispatch itself, not
// a result: vector and scalar axpy agree bit for bit, so only the
// predicate every call site consults can show which one Daxpy, Dtrsm and
// Dgetf2 are running (pack's own test does the same for MicroKernel, where
// the FMA makes the route visible in the bits as well). The scalar-oracle
// CI leg (PHIHPL_DISABLE_VECTOR_KERNEL=1) and the noasm build must both
// land on the pure-Go loop; on a capable CPU the flag alone flips the
// route.
func TestLevel1DispatchFollowsKernelGates(t *testing.T) {
	if os.Getenv("PHIHPL_DISABLE_VECTOR_KERNEL") != "" && pack.UseVector() {
		t.Fatal("PHIHPL_DISABLE_VECTOR_KERNEL is set but level-1 still dispatches to assembly")
	}
	if !pack.VectorKernel() {
		if pack.UseVector() {
			t.Fatal("UseVector true without a vector kernel (noasm build or unsupported CPU)")
		}
		return
	}
	saved := pack.DisableVectorKernel
	defer func() { pack.DisableVectorKernel = saved }()
	pack.DisableVectorKernel = true
	if pack.UseVector() {
		t.Fatal("DisableVectorKernel did not route level-1 through the Go loop")
	}
	pack.DisableVectorKernel = false
	if !pack.UseVector() {
		t.Fatal("vector level-1 primitive not dispatched on a capable CPU")
	}
}
