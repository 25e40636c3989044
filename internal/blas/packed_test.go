package blas

import (
	"math"
	"runtime"
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

// ulpEps is the double-precision machine epsilon, the unit for the
// 8·k·ulp oracle bound.
const ulpEps = 2.220446049250313e-16

// opAt reads op(X)(i, j).
func opAt(x *matrix.Dense, trans bool, i, j int) float64 {
	if trans {
		return x.At(j, i)
	}
	return x.At(i, j)
}

// assertPackedMatchesRef checks DgemmPacked against the naive reference
// element-wise: |packed - ref| must stay within 8·(k+2)·ulp of the
// element's accumulated magnitude |alpha|·Σ|a·b| + |beta·c0|, the
// standard forward-error envelope for a reordered k-term sum.
func assertPackedMatchesRef(t *testing.T, tag string, transA, transB bool,
	alpha float64, a, b *matrix.Dense, beta float64, c0, got, want *matrix.Dense) {
	t.Helper()
	m, k := opDims(a, transA)
	_, n := opDims(b, transB)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			mag := math.Abs(beta * c0.At(i, j))
			for p := 0; p < k; p++ {
				mag += math.Abs(alpha * opAt(a, transA, i, p) * opAt(b, transB, p, j))
			}
			bound := 8 * float64(k+2) * ulpEps * (mag + 1)
			if d := math.Abs(got.At(i, j) - want.At(i, j)); d > bound || math.IsNaN(d) {
				t.Fatalf("%s: C(%d,%d) = %v, want %v (|diff| %g > bound %g)",
					tag, i, j, got.At(i, j), want.At(i, j), d, bound)
			}
		}
	}
}

// TestDgemmPackedOracleEdgeShapes drives the fast path through every
// partial-tile regime: m % 30 != 0, n % 8 != 0, k = 1, m = 1, n = 1 and
// single-tile shapes.
func TestDgemmPackedOracleEdgeShapes(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{30, 8, 16},           // exactly one tile
		{31, 9, 7},            // partial edge tiles both ways
		{29, 7, 1},            // k = 1
		{1, 1, 1},             // degenerate
		{1, 40, 24},           // m = 1
		{64, 1, 24},           // n = 1
		{60, 16, 40},          // multiple full tiles
		{95, 23, 33},          // ragged
		{30, 8, 2*packKC + 5}, // several K-blocks
	}
	for _, s := range shapes {
		a := matrix.RandomGeneral(s.m, s.k, uint64(s.m*7+s.k))
		b := matrix.RandomGeneral(s.k, s.n, uint64(s.n*13+s.k))
		c0 := matrix.RandomGeneral(s.m, s.n, 17)
		for _, workers := range []int{1, 4} {
			got, want := c0.Clone(), c0.Clone()
			DgemmPacked(false, false, -1, a, b, 1, got, workers)
			dgemmRef(false, false, -1, a, b, 1, want)
			assertPackedMatchesRef(t, "edge", false, false, -1, a, b, 1, c0, got, want)
		}
	}
}

// TestDgemmPackedOracleProperty is the randomized oracle: for random
// (m, n, k, alpha, beta, transA, transB, workers, view-offset) tuples the
// packed fast path must match the reference triple loop element-wise
// within the 8·k·ulp envelope — including on strided matrix.Dense views.
func TestDgemmPackedOracleProperty(t *testing.T) {
	alphas := []float64{1, -1, 0.5, -2.25, 3}
	betas := []float64{0, 1, -0.5, 2}
	rng := matrix.NewPRNG(0xfeed)
	for iter := 0; iter < 120; iter++ {
		m := 1 + rng.Intn(70)
		n := 1 + rng.Intn(50)
		k := 1 + rng.Intn(90)
		alpha := alphas[rng.Intn(len(alphas))]
		beta := betas[rng.Intn(len(betas))]
		transA := rng.Intn(2) == 1
		transB := rng.Intn(2) == 1
		workers := 1 + rng.Intn(8)

		// Operands live inside larger host matrices at random offsets, so
		// every access exercises Stride > Cols views.
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		oi, oj := rng.Intn(4), rng.Intn(4)
		aHost := matrix.RandomGeneral(ar+oi+2, ac+oj+2, rng.Uint64())
		bHost := matrix.RandomGeneral(br+oi+2, bc+oj+2, rng.Uint64())
		a := aHost.View(oi, oj, ar, ac)
		b := bHost.View(oi, oj, br, bc)

		c0 := matrix.RandomGeneral(m+oi+1, n+oj+1, rng.Uint64())
		gotHost, wantHost := c0.Clone(), c0.Clone()
		got := gotHost.View(oi, oj, m, n)
		want := wantHost.View(oi, oj, m, n)

		DgemmPacked(transA, transB, alpha, a, b, beta, got, workers)
		dgemmRef(transA, transB, alpha, a, b, beta, want)

		tag := "property"
		assertPackedMatchesRef(t, tag, transA, transB, alpha, a.Clone(), b.Clone(), beta,
			c0.View(oi, oj, m, n).Clone(), got.Clone(), want.Clone())

		// The host matrix outside the view must be untouched.
		for i := 0; i < gotHost.Rows; i++ {
			for j := 0; j < gotHost.Cols; j++ {
				inside := i >= oi && i < oi+m && j >= oj && j < oj+n
				if !inside && gotHost.At(i, j) != c0.At(i, j) {
					t.Fatalf("iter %d: wrote outside the view at (%d,%d)", iter, i, j)
				}
			}
		}
	}
}

// TestDgemmPackedWorkerAndPartitionInvariance pins the determinism
// contract the LU drivers rely on: the packed result is bitwise identical
// for any worker count, and slicing C into row or column strips (separate
// calls with the same k) reproduces the one-shot result bit for bit.
func TestDgemmPackedWorkerAndPartitionInvariance(t *testing.T) {
	m, n, k := 77, 41, 52
	a := matrix.RandomGeneral(m, k, 1)
	b := matrix.RandomGeneral(k, n, 2)
	c0 := matrix.RandomGeneral(m, n, 3)

	base := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, base, 1)

	for _, workers := range []int{2, 3, 8, 64} {
		got := c0.Clone()
		DgemmPacked(false, false, -1, a, b, 1, got, workers)
		if !matrix.Equal(got, base) {
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
		DgemmPacked(false, false, -1, a, b.View(0, lo, k, hi-lo), 1, cols.View(0, lo, m, hi-lo), 4)
	}
	if !matrix.Equal(cols, base) {
		t.Fatal("column-partitioned result differs bitwise")
	}

	// Row strips: C[lo:hi, :] -= A[lo:hi, :] · B.
	rows := c0.Clone()
	for lo := 0; lo < m; lo += 19 {
		hi := lo + 19
		if hi > m {
			hi = m
		}
		DgemmPacked(false, false, -1, a.View(lo, 0, hi-lo, k), b, 1, rows.View(lo, 0, hi-lo, n), 4)
	}
	if !matrix.Equal(rows, base) {
		t.Fatal("row-partitioned result differs bitwise")
	}
}

// TestRankKUpdateIsPackedGemmBitwise pins the one update route in both
// precisions: RankKUpdate, GemmPacked(−1, β = 1) and a PrepackA /
// PrepackB / GemmPrepacked round agree bit for bit at every depth — thin,
// at either side of one K-block and over several — on ragged m and n,
// with the prepacked operands reused for a second product.
func TestRankKUpdateIsPackedGemmBitwise(t *testing.T) {
	t.Run("float64", testRankKUpdateIsPackedGemm[float64])
	t.Run("float32", testRankKUpdateIsPackedGemm[float32])
}

func testRankKUpdateIsPackedGemm[T matrix.Float](t *testing.T) {
	for _, k := range []int{1, 2, 7, 15, 16, 31, packKC, packKC + 1, 2*packKC + 5} {
		for _, sh := range []struct{ m, n int }{{1, 1}, {29, 7}, {61, 33}} {
			a := rnd[T](sh.m, k, uint64(k))
			b := rnd[T](k, sh.n, uint64(k)+1)
			c0 := rnd[T](sh.m, sh.n, 9)

			want := c0.Clone()
			GemmPacked(false, false, -1, a, b, 1, want, 3)
			got := c0.Clone()
			RankKUpdate(a, b, got, 3)
			if !matrix.Equal(got, want) {
				t.Fatalf("k=%d %dx%d: RankKUpdate is not GemmPacked(−1, β = 1) bit for bit", k, sh.m, sh.n)
			}

			pa, pb := PrepackA(a, -1), PrepackB(b)
			for _, workers := range []int{1, 2} {
				pre := c0.Clone()
				GemmPrepacked(pa, pb, pre, workers)
				if !matrix.Equal(pre, want) {
					t.Fatalf("k=%d %dx%d w=%d: GemmPrepacked is not GemmPacked bit for bit", k, sh.m, sh.n, workers)
				}
			}
			pa.Release()
			pb.Release()
		}
	}
}

// TestGemmNaNInfPropagation is the satellite regression for the old
// aip == 0 early-continue: a zero row of A times a NaN/Inf column of B
// must produce NaN (0·NaN = NaN, 0·Inf = NaN) on every path.
func TestGemmNaNInfPropagation(t *testing.T) {
	m, n, k := 35, 10, 20
	a := matrix.NewDense(m, k) // identically zero
	b := matrix.RandomGeneral(k, n, 5)
	b.Set(3, 4, math.NaN())
	b.Set(5, 1, math.Inf(1))

	run := map[string]func(c *matrix.Dense){
		"Dgemm":       func(c *matrix.Dense) { Dgemm(false, false, 1, a, b, 0, c) },
		"DgemmPacked": func(c *matrix.Dense) { DgemmPacked(false, false, 1, a, b, 0, c, 4) },
		"RankKUpdate": func(c *matrix.Dense) { RankKUpdate(a, b, c, 4) },
	}
	for name, f := range run {
		c := matrix.NewDense(m, n)
		f(c)
		for i := 0; i < m; i++ {
			if !math.IsNaN(c.At(i, 4)) {
				t.Errorf("%s: C(%d,4) = %v, want NaN from 0·NaN", name, i, c.At(i, 4))
				break
			}
			if !math.IsNaN(c.At(i, 1)) {
				t.Errorf("%s: C(%d,1) = %v, want NaN from 0·Inf", name, i, c.At(i, 1))
				break
			}
			if v := c.At(i, 0); v != 0 || math.IsNaN(v) {
				t.Errorf("%s: C(%d,0) = %v, want exact 0", name, i, v)
				break
			}
		}
	}
}

// TestDgemmPackedQuickReturnSemantics: alpha == 0 must not read A or B
// (NaN there stays out of C), and beta == 0 must overwrite NaN already
// in C — the BLAS quick-return rules, matching dgemmRows.
func TestDgemmPackedQuickReturnSemantics(t *testing.T) {
	m, n, k := 10, 9, 20
	a := matrix.NewDense(m, k)
	b := matrix.NewDense(k, n)
	a.Set(0, 0, math.NaN())
	b.Set(0, 0, math.NaN())

	c := matrix.RandomGeneral(m, n, 1)
	want := c.Clone()
	DgemmPacked(false, false, 0, a, b, 1, c, 4)
	if !matrix.Equal(c, want) {
		t.Error("alpha=0, beta=1 must leave C bitwise unchanged")
	}

	c.Set(2, 3, math.NaN())
	DgemmPacked(false, false, 0, a, b, 0, c, 4)
	if c.MaxAbs() != 0 {
		t.Error("alpha=0, beta=0 must store exact zeros (clearing NaN)")
	}
}

// TestDgemmPackedSteadyStateNoGoroutineSpawn: after warm-up, repeated
// fast-path calls must not grow the goroutine count — the worker pool is
// persistent, nothing spawns per call.
func TestDgemmPackedSteadyStateNoGoroutineSpawn(t *testing.T) {
	a := matrix.RandomGeneral(64, 48, 1)
	b := matrix.RandomGeneral(48, 40, 2)
	c := matrix.NewDense(64, 40)
	DgemmPacked(false, false, -1, a, b, 1, c, 8) // warm up the pool
	runtime.Gosched()
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		DgemmPacked(false, false, -1, a, b, 1, c, 8)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Errorf("goroutines grew from %d to %d over 100 calls", base, got)
	}
}

// TestDgemmPackedDimensionPanics mirrors the reference path's contract.
func TestDgemmPackedDimensionPanics(t *testing.T) {
	a := matrix.NewDense(2, 3)
	b := matrix.NewDense(4, 2)
	c := matrix.NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	DgemmPacked(false, false, 1, a, b, 0, c, 2)
}

// GemmPrepacked's pack-once-reuse must be bitwise the per-call
// DgemmPacked result — the contract that lets the 2D HPL driver share
// packed operands across a block row/column — for every shape, ragged
// tiles and a second K-block included, and independent of how many calls
// reuse the same prepacked operand.
func TestGemmPrepackedBitwiseMatchesDgemmPacked(t *testing.T) {
	for _, sh := range []struct{ m, n, k int }{
		{30, 8, 16},  // exactly one tile
		{64, 40, 32}, // several tiles
		{31, 9, 17},  // ragged everything
		{1, 1, 16},
		{95, 23, 384}, // k at the K-block boundary
		{95, 23, 389}, // one row of B past it: two K-blocks
	} {
		a := matrix.RandomGeneral(sh.m, sh.k, 11)
		b := matrix.RandomGeneral(sh.k, sh.n, 12)
		want := matrix.RandomGeneral(sh.m, sh.n, 13)
		got := want.Clone()

		DgemmPacked(false, false, -1, a, b, 1, want, 2)

		pa := PrepackA(a, -1)
		pb := PrepackB(b)
		// Reuse both operands twice: second use must still be bitwise.
		scratch := matrix.NewDense(sh.m, sh.n)
		GemmPrepacked(pa, pb, scratch, 1)
		GemmPrepacked(pa, pb, got, 2)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("%+v: (%d,%d) = %v, want %v (bitwise)", sh, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		pa.Release()
		pb.Release()
	}
}

// Mismatched shapes panic, and Release is safe on nil and after use.
func TestGemmPrepackedGuards(t *testing.T) {
	var nilA *PrepackedA[float64]
	var nilB *PrepackedB[float64]
	nilA.Release()
	nilB.Release()

	pa := PrepackA(matrix.RandomGeneral(8, 16, 1), -1)
	pb := PrepackB(matrix.RandomGeneral(17, 8, 1)) // k mismatch
	defer func() {
		if recover() == nil {
			t.Error("k mismatch must panic")
		}
	}()
	GemmPrepacked(pa, pb, matrix.NewDense(8, 8), 1)
}

// TestDgemmPackedKernelModeEnvelope pins the cross-kernel contract: the
// vector (FMA) and scalar kernels agree element-wise within the
// 8·(k+2)·ulp forward-error envelope — never bitwise, the FMA fuses each
// product — while WITHIN one kernel mode the result is bitwise
// independent of the worker count. Skipped where no vector kernel built.
func TestDgemmPackedKernelModeEnvelope(t *testing.T) {
	if !pack.VectorKernel() {
		t.Skip("no vector kernel on this platform/build")
	}
	m, n, k := 95, 23, packKC+17
	a := matrix.RandomGeneral(m, k, 7)
	b := matrix.RandomGeneral(k, n, 8)
	c0 := matrix.RandomGeneral(m, n, 9)

	vec := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, vec, 4)
	vec1 := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, vec1, 1)
	if !matrix.Equal(vec, vec1) {
		t.Fatal("vector kernel result depends on worker count")
	}

	prev := pack.DisableVectorKernel // already set on the scalar-oracle CI leg
	pack.DisableVectorKernel = true
	defer func() { pack.DisableVectorKernel = prev }()
	sca := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, sca, 4)
	sca1 := c0.Clone()
	DgemmPacked(false, false, -1, a, b, 1, sca1, 7)
	if !matrix.Equal(sca, sca1) {
		t.Fatal("scalar kernel result depends on worker count")
	}

	assertPackedMatchesRef(t, "vector-vs-scalar", false, false, -1, a, b, 1, c0, vec, sca)
}
