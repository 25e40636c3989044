package blas

import (
	"math"
	"runtime"
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

// ulpEps32 is the single-precision machine epsilon, the unit for the
// 8·k·ulp oracle bound on the vector-FMA kernel.
const ulpEps32 = 1.1920928955078125e-07

// randomDense32 fills an r×c Dense32 with deterministic values in
// [-0.5, 0.5), mirroring matrix.RandomGeneral.
func randomDense32(r, c int, seed uint64) *matrix.Dense32 {
	rng := matrix.NewPRNG(seed)
	m := matrix.NewDense32(r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.Float64() - 0.5)
	}
	return m
}

// equal32 compares two Dense32 bitwise (NaN-safe: equal bit patterns are
// equal values).
func equal32(a, b *matrix.Dense32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float32bits(ra[j]) != math.Float32bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// forceScalarKernel32 disables the vector micro-kernel for the duration of
// a test, so SgemmPacked runs the unfused scalar kernel that carries the
// bitwise contract against Sgemm.
func forceScalarKernel32(t *testing.T) {
	t.Helper()
	prev := pack.DisableVectorKernel32
	pack.DisableVectorKernel32 = true
	t.Cleanup(func() { pack.DisableVectorKernel32 = prev })
}

// TestSgemmPackedScalarBitwiseOracle is the satellite-1 contract: with the
// scalar micro-kernel active, SgemmPacked is bit-for-bit identical to the
// Sgemm reference loop over the full ragged-shape cross product
// m, n, k ∈ {1, 7, 29, 30, 31, 64, 257} — every partial-tile and
// multi-K-block regime the FP32 LU driver can produce.
func TestSgemmPackedScalarBitwiseOracle(t *testing.T) {
	forceScalarKernel32(t)
	dims := []int{1, 7, 29, 30, 31, 64, 257}
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				a := randomDense32(m, k, uint64(m*1000003+k))
				b := randomDense32(k, n, uint64(n*999983+k))
				c0 := randomDense32(m, n, 17)
				got, want := c0.Clone(), c0.Clone()
				SgemmPacked(false, false, -1, a, b, 1, got, 3)
				SgemmDense(false, false, -1, a, b, 1, want)
				if !equal32(got, want) {
					t.Fatalf("m=%d n=%d k=%d: scalar SgemmPacked differs bitwise from Sgemm", m, n, k)
				}
			}
		}
	}
}

// TestSgemmPackedScalarBitwiseAlphaBeta extends the bitwise oracle across
// the alpha/beta edge grid and both transposes.
func TestSgemmPackedScalarBitwiseAlphaBeta(t *testing.T) {
	forceScalarKernel32(t)
	alphas := []float32{0, 1, -1, 0.5, -2.25}
	betas := []float32{0, 1, -1, 2}
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			for _, alpha := range alphas {
				for _, beta := range betas {
					m, n, k := 31, 17, 23
					ar, ac := m, k
					if transA {
						ar, ac = k, m
					}
					br, bc := k, n
					if transB {
						br, bc = n, k
					}
					a := randomDense32(ar, ac, 5)
					b := randomDense32(br, bc, 6)
					c0 := randomDense32(m, n, 7)
					got, want := c0.Clone(), c0.Clone()
					SgemmPacked(transA, transB, alpha, a, b, beta, got, 2)
					SgemmDense(transA, transB, alpha, a, b, beta, want)
					if !equal32(got, want) {
						t.Fatalf("tA=%v tB=%v alpha=%v beta=%v: bitwise mismatch",
							transA, transB, alpha, beta)
					}
				}
			}
		}
	}
}

// TestSgemmPackedVectorEnvelopeOracle validates the active micro-kernel
// (the fused-FMA vector kernel where the CPU has it) against a float64
// reference: every element within the 8·(k+2)·ulp32 forward-error
// envelope of its accumulated magnitude. On machines without the vector
// kernel this still runs, degenerating to a loose check on the scalar path.
func TestSgemmPackedVectorEnvelopeOracle(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{32, 16, 16},           // exactly one tile
		{33, 17, 7},            // partial edge tiles both ways
		{31, 15, 1},            // k = 1
		{1, 1, 1},              // degenerate
		{1, 40, 24},            // m = 1
		{64, 1, 24},            // n = 1
		{95, 23, 33},           // ragged
		{32, 16, 2*packKC + 5}, // several K-blocks
	}
	for _, s := range shapes {
		a := randomDense32(s.m, s.k, uint64(s.m*7+s.k))
		b := randomDense32(s.k, s.n, uint64(s.n*13+s.k))
		c0 := randomDense32(s.m, s.n, 23)
		got := c0.Clone()
		SgemmPacked(false, false, -1, a, b, 1, got, 4)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				want := float64(c0.At(i, j))
				mag := math.Abs(want)
				for p := 0; p < s.k; p++ {
					prod := float64(a.At(i, p)) * float64(b.At(p, j))
					want -= prod
					mag += math.Abs(prod)
				}
				bound := 8 * float64(s.k+2) * ulpEps32 * (mag + 1)
				if d := math.Abs(float64(got.At(i, j)) - want); d > bound || math.IsNaN(d) {
					t.Fatalf("%+v: C(%d,%d) = %v, want %v (|diff| %g > bound %g)",
						s, i, j, got.At(i, j), want, d, bound)
				}
			}
		}
	}
}

// TestSgemmPackedWorkerAndPartitionInvariance pins the determinism
// contract the FP32 LU driver relies on, for whichever micro-kernel is
// active: the result is bitwise identical for any worker count, and
// slicing C into row or column strips (separate calls with the same k)
// reproduces the one-shot result bit for bit.
func TestSgemmPackedWorkerAndPartitionInvariance(t *testing.T) {
	m, n, k := 77, 41, 52
	a := randomDense32(m, k, 1)
	b := randomDense32(k, n, 2)
	c0 := randomDense32(m, n, 3)

	base := c0.Clone()
	SgemmPacked(false, false, -1, a, b, 1, base, 1)

	for _, workers := range []int{2, 3, 8, 64} {
		got := c0.Clone()
		SgemmPacked(false, false, -1, a, b, 1, got, workers)
		if !equal32(got, base) {
			t.Fatalf("workers=%d: result differs bitwise from serial", workers)
		}
	}

	// Column strips: C[:, lo:hi] -= A · B[:, lo:hi].
	cols := c0.Clone()
	for lo := 0; lo < n; lo += 13 {
		hi := lo + 13
		if hi > n {
			hi = n
		}
		SgemmPacked(false, false, -1, a, b.View(0, lo, k, hi-lo), 1, cols.View(0, lo, m, hi-lo), 4)
	}
	if !equal32(cols, base) {
		t.Fatal("column-partitioned result differs bitwise")
	}

	// Row strips: C[lo:hi, :] -= A[lo:hi, :] · B.
	rows := c0.Clone()
	for lo := 0; lo < m; lo += 19 {
		hi := lo + 19
		if hi > m {
			hi = m
		}
		SgemmPacked(false, false, -1, a.View(lo, 0, hi-lo, k), b, 1, rows.View(lo, 0, hi-lo, n), 4)
	}
	if !equal32(rows, base) {
		t.Fatal("row-partitioned result differs bitwise")
	}
}

// TestSgemmPackedViewsUntouchedOutside: writing through a view must leave
// the host matrix outside the view bitwise intact.
func TestSgemmPackedViewsUntouchedOutside(t *testing.T) {
	m, n, k := 37, 21, 40
	oi, oj := 3, 2
	aHost := randomDense32(m+oi+2, k+oj+2, 4)
	bHost := randomDense32(k+oi+2, n+oj+2, 5)
	cHost := randomDense32(m+oi+1, n+oj+1, 6)
	c0 := cHost.Clone()

	SgemmPacked(false, false, -1,
		aHost.View(oi, oj, m, k), bHost.View(oi, oj, k, n),
		1, cHost.View(oi, oj, m, n), 4)

	for i := 0; i < cHost.Rows; i++ {
		for j := 0; j < cHost.Cols; j++ {
			inside := i >= oi && i < oi+m && j >= oj && j < oj+n
			if !inside && cHost.At(i, j) != c0.At(i, j) {
				t.Fatalf("wrote outside the view at (%d,%d)", i, j)
			}
		}
	}
}

// TestSgemmNaNInfPropagation: a zero row of A times a NaN/Inf column of B
// must produce NaN (0·NaN = NaN, 0·Inf = NaN) on every single-precision
// path — no zero-skip shortcuts anywhere.
func TestSgemmNaNInfPropagation(t *testing.T) {
	m, n, k := 35, 10, 20
	a := matrix.NewDense32(m, k) // identically zero
	b := randomDense32(k, n, 5)
	b.Set(3, 4, float32(math.NaN()))
	b.Set(5, 1, float32(math.Inf(1)))

	run := map[string]func(c *matrix.Dense32){
		"SgemmDense":   func(c *matrix.Dense32) { SgemmDense(false, false, 1, a, b, 0, c) },
		"SgemmPacked":  func(c *matrix.Dense32) { SgemmPacked(false, false, 1, a, b, 0, c, 4) },
		"SRankKUpdate": func(c *matrix.Dense32) { SRankKUpdate(a, b, c, 4) },
	}
	for name, f := range run {
		c := matrix.NewDense32(m, n)
		f(c)
		for i := 0; i < m; i++ {
			if v := float64(c.At(i, 4)); !math.IsNaN(v) {
				t.Errorf("%s: C(%d,4) = %v, want NaN from 0·NaN", name, i, v)
				break
			}
			if v := float64(c.At(i, 1)); !math.IsNaN(v) {
				t.Errorf("%s: C(%d,1) = %v, want NaN from 0·Inf", name, i, v)
				break
			}
			if v := c.At(i, 0); v != 0 {
				t.Errorf("%s: C(%d,0) = %v, want exact 0", name, i, v)
				break
			}
		}
	}
}

// TestSgemmPackedQuickReturnSemantics: alpha == 0 must not read A or B
// (NaN there stays out of C), and beta == 0 must overwrite NaN already in
// C — the BLAS quick-return rules, matching Sgemm.
func TestSgemmPackedQuickReturnSemantics(t *testing.T) {
	m, n, k := 10, 9, 20
	a := matrix.NewDense32(m, k)
	b := matrix.NewDense32(k, n)
	a.Set(0, 0, float32(math.NaN()))
	b.Set(0, 0, float32(math.NaN()))

	c := randomDense32(m, n, 1)
	want := c.Clone()
	SgemmPacked(false, false, 0, a, b, 1, c, 4)
	if !equal32(c, want) {
		t.Error("alpha=0, beta=1 must leave C bitwise unchanged")
	}

	c.Set(2, 3, float32(math.NaN()))
	SgemmPacked(false, false, 0, a, b, 0, c, 4)
	for i := range c.Data {
		if c.Data[i] != 0 {
			t.Fatal("alpha=0, beta=0 must store exact zeros (clearing NaN)")
		}
	}
}

// TestSgemmPackedZeroDims: zero-size dimensions are quick returns on
// every path (satellite 4 companion to the flat-Sgemm guard tests).
func TestSgemmPackedZeroDims(t *testing.T) {
	host := randomDense32(8, 8, 1)
	for _, dims := range []struct{ m, n, k int }{
		{0, 5, 5}, {5, 0, 5}, {5, 5, 0}, {0, 0, 0},
	} {
		a := host.View(0, 0, dims.m, dims.k)
		b := host.View(0, 0, dims.k, dims.n)
		c := matrix.NewDense32(dims.m, dims.n)
		SgemmPacked(false, false, 1, a, b, 0, c, 2) // must not panic
		SgemmDense(false, false, 1, a, b, 0, c)

		// k == 0 with beta != 1 must still scale C.
		if dims.k == 0 && dims.m > 0 && dims.n > 0 {
			c2 := randomDense32(dims.m, dims.n, 2)
			SgemmPacked(false, false, 1, a, b, 0, c2, 2)
			for i := range c2.Data {
				if c2.Data[i] != 0 {
					t.Fatal("k=0 beta=0 must zero C")
				}
			}
		}
	}
}

// TestSgemmPackedSteadyStateNoGoroutineSpawn: after warm-up, repeated
// fast-path calls must not grow the goroutine count — the FP32 path rides
// the same persistent worker pool as the FP64 one.
func TestSgemmPackedSteadyStateNoGoroutineSpawn(t *testing.T) {
	a := randomDense32(64, 48, 1)
	b := randomDense32(48, 40, 2)
	c := matrix.NewDense32(64, 40)
	SgemmPacked(false, false, -1, a, b, 1, c, 8) // warm up the pool
	runtime.Gosched()
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		SgemmPacked(false, false, -1, a, b, 1, c, 8)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Errorf("goroutines grew from %d to %d over 100 calls", base, got)
	}
}

// TestSgemmPackedDimensionPanics mirrors the reference path's contract.
func TestSgemmPackedDimensionPanics(t *testing.T) {
	a := matrix.NewDense32(2, 3)
	b := matrix.NewDense32(4, 2)
	c := matrix.NewDense32(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	SgemmPacked(false, false, 1, a, b, 0, c, 2)
}
