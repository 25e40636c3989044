package blas

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

// getf2Ref is the column-at-a-time unblocked elimination both precisions
// ran before the panel was fused and moved into a contiguous copy — Dgetf2
// until PR 13, Sgetf2 until the twins were collapsed: pivot search, swap,
// scale the column, then update the trailing rows, all in place on the
// (possibly strided) view. It is the oracle the fused kernel must match
// bit for bit — factors, pivots and the reported singular column — in
// each instantiation.
func getf2Ref[T matrix.Float](a *matrix.Of[T], piv []int) error {
	m, n := a.Rows, a.Cols
	var err error
	for k := range piv {
		p := IdamaxCol(a, k, k)
		piv[k] = p
		if pv := a.At(p, k); pv == 0 || math.Abs(float64(pv)) < minNormalOf[T]() {
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
// pins down; *where* a NaN appears is pinned. (Widening a float32 keeps
// every bit that tells two values apart, the sign of zero included.)
func sameBits[T matrix.Float](x, y T) bool {
	a, b := float64(x), float64(y)
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// rnd is matrix.RandomGeneral rounded to T.
func rnd[T matrix.Float](rows, cols int, seed uint64) *matrix.Of[T] {
	return demote[T](matrix.RandomGeneral(rows, cols, seed))
}

// demote returns a with every element rounded to T.
func demote[T matrix.Float](a *matrix.Dense) *matrix.Of[T] {
	out := matrix.New[T](a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			out.Set(i, j, T(v))
		}
	}
	return out
}

// assertGetf2MatchesRef factors one clone of a with each kernel and
// requires identical factors, pivots and error. strided embeds the panel
// in a wider matrix first, so Getf2 takes its copy-in/copy-out route and
// must leave the columns beside the panel untouched.
func assertGetf2MatchesRef[T matrix.Float](t *testing.T, tag string, a *matrix.Of[T], strided bool) {
	t.Helper()
	m, n := a.Rows, a.Cols
	got, want := a.Clone(), a.Clone()
	if strided {
		const pad = 3
		host := rnd[T](m, n+2*pad, 12345)
		got = host.View(0, pad, m, n)
		got.CopyFrom(a)
		before := host.Clone()
		defer func() {
			for i := 0; i < m; i++ {
				for j := 0; j < n+2*pad; j++ {
					if (j < pad || j >= pad+n) && !sameBits(host.At(i, j), before.At(i, j)) {
						t.Fatalf("%s: Getf2 wrote outside its view at (%d,%d)", tag, i, j)
					}
				}
			}
		}()
	}
	mn := min(m, n)
	gotPiv, wantPiv := make([]int, mn), make([]int, mn)
	gotErr := Getf2(got, gotPiv)
	wantErr := getf2Ref(want, wantPiv)

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
// drivers can hand it, each as a contiguous matrix and as a strided view,
// in both precisions.
func TestDgetf2MatchesUnblockedReference(t *testing.T) {
	t.Run("float64", testGetf2MatchesUnblockedReference[float64])
	t.Run("float32", testGetf2MatchesUnblockedReference[float32])
}

func testGetf2MatchesUnblockedReference[T matrix.Float](t *testing.T) {
	inf, nan := T(math.Inf(1)), T(math.NaN())
	// Subnormal in T: float32 rounds 1e-310 to zero, which would turn the
	// subnormal case into a second zero-column case.
	sub := 1e-310
	if !matrix.Is64[T]() {
		sub = 1e-40
	}
	cases := []struct {
		name string
		a    *matrix.Of[T]
	}{
		{"tall 40x7 (w%4!=0)", rnd[T](40, 7, 1)},
		{"tall 96x16", rnd[T](96, 16, 2)},
		{"square 33x33", rnd[T](33, 33, 3)},
		{"wide 5x12 (m<n)", rnd[T](5, 12, 4)},
		{"one column 17x1", rnd[T](17, 1, 5)},
		{"one row 1x9", rnd[T](1, 9, 6)},
		{"1x1", rnd[T](1, 1, 7)},
		{"exact ties in |pivot|", func() *matrix.Of[T] {
			a := rnd[T](12, 6, 8)
			for i := 0; i < 12; i++ {
				// Column 0: ±2 everywhere, so the lowest row must win; the
				// updates then make column 1 tie-prone as well.
				a.Set(i, 0, 2*T(1-2*(i%2)))
				a.Set(i, 1, 0.5)
			}
			return a
		}()},
		{"zero column mid-panel", func() *matrix.Of[T] {
			a := rnd[T](20, 8, 9)
			for i := 0; i < 20; i++ {
				a.Set(i, 3, a.At(i, 2)) // duplicate → exact zero pivot at k=3
			}
			return a
		}()},
		{"subnormal column mid-panel", func() *matrix.Of[T] {
			a := demote[T](matrix.Eye(10).View(0, 0, 10, 6))
			for i := 2; i < 10; i++ {
				a.Set(i, 2, T(float64(i)*sub))
			}
			a.Set(2, 2, 0)
			a.Set(7, 4, 3) // a later, healthy column with a real swap
			return a
		}()},
		{"NaN in the pivot column", func() *matrix.Of[T] {
			a := rnd[T](14, 5, 10)
			a.Set(6, 0, nan) // not the search's first row: never chosen
			a.Set(2, 2, nan) // becomes a first row once k reaches 2
			return a
		}()},
		{"NaN in the first search row", func() *matrix.Of[T] {
			a := rnd[T](9, 4, 11)
			a.Set(0, 0, nan)
			return a
		}()},
		{"Inf beside a zero multiplier", func() *matrix.Of[T] {
			a := rnd[T](8, 5, 12)
			a.Set(0, 0, 4) // the pivot row, carrying ±Inf in its tail
			a.Set(0, 2, inf)
			a.Set(0, 3, -inf)
			for i := 1; i < 8; i++ {
				a.Set(i, 0, T(i%2)) // every other multiplier is exactly 0
			}
			return a
		}()},
	}
	for _, c := range cases {
		assertGetf2MatchesRef(t, c.name+"/contiguous", c.a, false)
		assertGetf2MatchesRef(t, c.name+"/strided", c.a, true)
	}
}

// axpyRoute reports which loop axpy ran for T, read off a result the two
// loops do not share: on overlapping operands — y one element ahead of x,
// all ones — the Go loop carries each sum into the next element and ends
// on 17, the assembly (either width) loads all sixteen x before it stores
// any y and ends on 2. (On disjoint operands, the only kind the drivers
// pass, the two agree bit for bit, so nothing but aliasing can show the
// route.)
func axpyRoute[T matrix.Float](t *testing.T) (vector bool) {
	t.Helper()
	buf := make([]T, 17)
	for i := range buf {
		buf[i] = 1
	}
	axpy(1, buf[:16], buf[1:])
	switch buf[16] {
	case 17:
		return false
	case 2:
		return true
	}
	t.Fatalf("axpy probe ended on %v: neither the Go loop nor the vector assembly", buf[16])
	return false
}

// TestLevel1DispatchFollowsKernelGates asserts which loop the level-1
// update actually ran under each gate, per instantiation. float64 reaches
// daxpyAVX2 exactly when pack.UseVector() says so — the one predicate
// Daxpy, Trsm and Getf2 consult for float64. float32 reaches saxpyAVX2
// exactly when the FP32 kernel gate (pack.VectorKernel32() &&
// !pack.DisableVectorKernel32) is open, whatever the FP64 gate says, and
// never the float64 assembly, which would read the float32 slice as half
// as many doubles. The scalar-oracle CI leg
// (PHIHPL_DISABLE_VECTOR_KERNEL=1) and the noasm build must land both on
// the pure-Go loop.
func TestLevel1DispatchFollowsKernelGates(t *testing.T) {
	check := func(when string) {
		t.Helper()
		if got := axpyRoute[float64](t); got != pack.UseVector() {
			t.Fatalf("%s: float64 axpy ran the assembly = %v, UseVector() = %v", when, got, pack.UseVector())
		}
		gate32 := pack.VectorKernel32() && !pack.DisableVectorKernel32
		if got := axpyRoute[float32](t); got != gate32 {
			t.Fatalf("%s: float32 axpy ran the assembly = %v, its gate says %v", when, got, gate32)
		}
	}
	check("as started")
	if os.Getenv("PHIHPL_DISABLE_VECTOR_KERNEL") != "" && (pack.UseVector() || axpyRoute[float32](t)) {
		t.Fatal("PHIHPL_DISABLE_VECTOR_KERNEL is set but level-1 still dispatches to assembly")
	}
	if !pack.VectorKernel() || !pack.VectorKernel32() {
		if pack.UseVector() || axpyRoute[float32](t) {
			t.Fatal("vector level-1 dispatch without a vector kernel (noasm build or unsupported CPU)")
		}
		return
	}
	saved, saved32 := pack.DisableVectorKernel, pack.DisableVectorKernel32
	defer func() { pack.DisableVectorKernel, pack.DisableVectorKernel32 = saved, saved32 }()
	for _, g := range []struct{ off64, off32 bool }{{true, false}, {false, true}, {true, true}, {false, false}} {
		pack.DisableVectorKernel, pack.DisableVectorKernel32 = g.off64, g.off32
		check(fmt.Sprintf("DisableVectorKernel=%v DisableVectorKernel32=%v", g.off64, g.off32))
	}
	if !pack.UseVector() || !axpyRoute[float32](t) {
		t.Fatal("vector level-1 primitives not dispatched on a capable CPU")
	}
}
