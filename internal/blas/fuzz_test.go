package blas

import (
	"math"
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

// FuzzDgetf2 feeds arbitrary seeds/shapes into the panel factorization.
// Every input — plain, strided, or salted with the special values the
// kernel has rules for — must match the unblocked reference loop bit for
// bit (factors, pivots, singular column), as float64 and again rounded to
// float32; a plain input that factors must
// also satisfy the LU invariants: reconstruction, bounded multipliers,
// in-range pivots. Run with `go test -fuzz=FuzzDgetf2` for a deep hunt;
// plain `go test` exercises the seed corpus plus testdata/fuzz.
func FuzzDgetf2(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(4), uint8(0))
	f.Add(uint64(42), uint8(20), uint8(6), uint8(1))   // strided view
	f.Add(uint64(7), uint8(1), uint8(1), uint8(0))     // 1x1
	f.Add(uint64(0), uint8(31), uint8(15), uint8(2))   // a zero column
	f.Add(uint64(3), uint8(5), uint8(17), uint8(5))    // m<n, strided, ties
	f.Add(uint64(9), uint8(24), uint8(9), uint8(8))    // NaN
	f.Add(uint64(11), uint8(12), uint8(7), uint8(16))  // Inf beside zero multipliers
	f.Add(uint64(13), uint8(30), uint8(30), uint8(31)) // everything at once
	f.Fuzz(func(t *testing.T, seed uint64, mR, nR, salt uint8) {
		m := 1 + int(mR)%32
		n := 1 + int(nR)%32
		a := matrix.RandomGeneral(m, n, seed)
		col := int(seed>>8) % n
		row := int(seed>>16) % m
		if salt&2 != 0 { // an exactly zero column: a singular stage mid-panel
			for i := 0; i < m; i++ {
				a.Set(i, col, 0)
			}
		}
		if salt&4 != 0 { // exact ties in |pivot|: the lowest row must win
			for i := 0; i < m; i++ {
				a.Set(i, (col+1)%n, float64(1-2*(i%2)))
			}
		}
		if salt&8 != 0 {
			a.Set(row, (col+2)%n, math.NaN())
		}
		if salt&16 != 0 { // zero multipliers must not let 0·Inf poison a row
			a.Set(0, 0, 8)
			a.Set(0, n-1, math.Inf(1))
			for i := 1; i < m; i += 2 {
				a.Set(i, 0, 0)
			}
		}
		assertGetf2MatchesRef(t, "fuzz", a, salt&1 != 0)
		assertGetf2MatchesRef(t, "fuzz/float32", demote[float32](a), salt&1 != 0)
		if salt&^1 != 0 {
			return // the invariants below are for well-behaved input
		}

		orig := a.Clone()
		piv := make([]int, min(m, n))
		if err := Dgetf2(a, piv); err != nil {
			return // singular is a legal outcome
		}
		// Pivots in range and >= their position.
		for k, p := range piv {
			if p < k || p >= m {
				t.Fatalf("pivot %d out of range: %d", k, p)
			}
		}
		// Multipliers bounded by 1.
		for i := 0; i < m; i++ {
			for j := 0; j < i && j < n; j++ {
				if v := a.At(i, j); v > 1+1e-12 || v < -1-1e-12 {
					t.Fatalf("multiplier (%d,%d)=%v exceeds 1", i, j, v)
				}
			}
		}
		// Square case: reconstruct and compare.
		if m == n {
			recon := reconstructLU(a, piv)
			if d := matrix.MaxDiff(recon, orig); d > 1e-8*(1+orig.MaxAbs()) {
				t.Fatalf("reconstruction error %g", d)
			}
		}
	})
}

// FuzzAxpy holds the assembly level-1 primitives to the Go loop they
// replace: arbitrary alpha, lengths 0–67 (every combination of the
// 16-wide, 8-wide, 4-wide and scalar tails), source and destination each
// at an arbitrary element offset, bit-for-bit agreement, and no write
// before or past the len(x) window. Each input runs as float64 through
// daxpyAVX2 and again rounded to float32 through saxpyAVX2. On a machine
// or build without the vector kernels both sides are the Go loop and only
// the window check bites.
func FuzzAxpy(f *testing.F) {
	f.Add(uint64(1), 1.5, uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), -0.25, uint8(67), uint8(1), uint8(3))
	f.Add(uint64(3), math.Inf(-1), uint8(9), uint8(2), uint8(1))
	f.Add(uint64(4), math.NaN(), uint8(4), uint8(3), uint8(2))
	f.Add(uint64(5), 0.0, uint8(33), uint8(0), uint8(1))
	f.Add(uint64(6), 5e-324, uint8(12), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, alpha float64, nR, xOff, yOff uint8) {
		checkAxpy(t, seed, alpha, int(nR)%68, int(xOff)%4, int(yOff)%4)
		checkAxpy(t, seed, float32(alpha), int(nR)%68, int(xOff)%4, int(yOff)%4)
	})
}

// checkAxpy runs one y += alpha·x of length n, with x and y starting xo
// and yo elements into their arrays, through the assembly (when the CPU
// has it, whatever the gates say) and through the Go loop.
func checkAxpy[T matrix.Float](t *testing.T, seed uint64, alpha T, n, xo, yo int) {
	t.Helper()
	x := rnd[T](1, n+8, seed).Data[xo : xo+n]
	y0 := rnd[T](1, n+8, seed+1).Data
	got := append([]T(nil), y0...)
	want := append([]T(nil), y0...)
	switch {
	case n == 0:
		axpy(alpha, x, got[yo:])
	case matrix.Is64[T]() && pack.VectorKernel():
		axpyVector(float64(alpha), matrix.Slice64(x), matrix.Slice64(got[yo:]))
	case !matrix.Is64[T]() && pack.VectorKernel32():
		axpyVector32(float32(alpha), matrix.Slice32(x), matrix.Slice32(got[yo:]))
	default:
		axpy(alpha, x, got[yo:])
	}
	axpyScalar(alpha, x, want[yo:])
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("n=%d xo=%d yo=%d alpha=%v: y[%d] = %v, Go loop %v", n, xo, yo, alpha, i-yo, got[i], want[i])
		}
		if (i < yo || i >= yo+n) && !sameBits(got[i], y0[i]) {
			t.Fatalf("n=%d yo=%d: wrote outside the window at %d", n, yo, i-yo)
		}
	}
}

// TestAxpyEveryLengthAndOffset is FuzzAxpy's space walked exhaustively in
// the dimensions that select code paths: every length 0–67 at every
// source and destination offset.
func TestAxpyEveryLengthAndOffset(t *testing.T) {
	for n := 0; n <= 67; n++ {
		for xo := 0; xo < 4; xo++ {
			for yo := 0; yo < 4; yo++ {
				checkAxpy[float64](t, uint64(n), -1.75, n, xo, yo)
				checkAxpy[float32](t, uint64(n), -1.75, n, xo, yo)
			}
		}
	}
}

// FuzzPackedGemm drives the whole pack → micro-kernel → unpack chain with
// arbitrary shapes, seeds and worker counts and compares it against the
// naive triple loop. It also round-trips the op-aware tile packers to
// catch padding or indexing bugs independent of the multiply. Run with
// `go test -fuzz=FuzzPackedGemm` for a deep hunt; plain `go test`
// exercises the seed corpus.
func FuzzPackedGemm(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(8), uint8(16), uint8(1))
	f.Add(uint64(2), uint8(31), uint8(9), uint8(1), uint8(2))  // k = 1, partial tiles
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint8(3))   // degenerate
	f.Add(uint64(4), uint8(29), uint8(7), uint8(40), uint8(4)) // short edge tiles
	f.Add(uint64(5), uint8(61), uint8(17), uint8(5), uint8(8)) // multiple tiles
	f.Fuzz(func(t *testing.T, seed uint64, mR, nR, kR, wR uint8) {
		m := 1 + int(mR)%96
		n := 1 + int(nR)%48
		k := 1 + int(kR)%48
		workers := 1 + int(wR)%8
		a := matrix.RandomGeneral(m, k, seed)
		b := matrix.RandomGeneral(k, n, seed^0x9e3779b97f4a7c15)

		// The tile packers must round-trip: packing op(A) with alpha=1 and
		// unpacking reproduces A exactly (padding dropped), same for B.
		pa := &pack.A{M: m, K: k, TileM: pack.DefaultTileM,
			Data: make([]float64, ((m+pack.DefaultTileM-1)/pack.DefaultTileM)*pack.DefaultTileM*k)}
		for tile := 0; tile < pa.Tiles(); tile++ {
			pack.PackATileOp(pa, a, false, 1, 0, tile)
		}
		backA := matrix.NewDense(m, k)
		pa.Unpack(backA)
		if !matrix.Equal(backA, a) {
			t.Fatal("PackATileOp round-trip lost data")
		}
		pb := &pack.B{K: k, N: n,
			Data: make([]float64, ((n+pack.TileN-1)/pack.TileN)*pack.TileN*k)}
		for tile := 0; tile < pb.Tiles(); tile++ {
			pack.PackBTileOp(pb, b, false, 0, tile)
		}
		backB := matrix.NewDense(k, n)
		pb.Unpack(backB)
		if !matrix.Equal(backB, b) {
			t.Fatal("PackBTileOp round-trip lost data")
		}

		// Full fast path vs the naive triple loop, element-wise, with the
		// k-scaled forward-error envelope.
		c0 := matrix.RandomGeneral(m, n, seed^0xdeadbeef)
		got, want := c0.Clone(), c0.Clone()
		DgemmPacked(false, false, -1, a, b, 1, got, workers)
		dgemmRef(false, false, -1, a, b, 1, want)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				mag := math.Abs(c0.At(i, j))
				for p := 0; p < k; p++ {
					mag += math.Abs(a.At(i, p) * b.At(p, j))
				}
				bound := 8 * float64(k+2) * ulpEps * (mag + 1)
				if d := math.Abs(got.At(i, j) - want.At(i, j)); d > bound || math.IsNaN(d) {
					t.Fatalf("C(%d,%d)=%v want %v (m=%d n=%d k=%d workers=%d)",
						i, j, got.At(i, j), want.At(i, j), m, n, k, workers)
				}
			}
		}
	})
}

// FuzzSgemmPacked drives the single-precision pack → micro-kernel →
// unpack chain (whichever micro-kernel the CPU selected) with arbitrary
// shapes, scalars, seeds and worker counts and checks two invariants: the
// result stays inside the 8·(k+2)·ulp32 forward-error envelope of a
// float64 reference, and it is bitwise independent of the worker count.
// Run with `go test -fuzz=FuzzSgemmPacked` for a deep hunt; plain
// `go test` exercises the seed corpus plus testdata/fuzz regressions.
func FuzzSgemmPacked(f *testing.F) {
	f.Add(uint64(1), uint8(32), uint8(16), uint8(16), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(2), uint8(33), uint8(17), uint8(1), uint8(2), uint8(1), uint8(0))  // k = 1, partial tiles
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint8(3), uint8(2), uint8(2))    // degenerate
	f.Add(uint64(4), uint8(31), uint8(15), uint8(40), uint8(4), uint8(3), uint8(3)) // short edge tiles
	f.Add(uint64(5), uint8(95), uint8(23), uint8(5), uint8(8), uint8(4), uint8(1))  // multiple tiles
	alphas := []float32{-1, 1, 0.5, -2.25, 0}
	betas := []float32{1, 0, -0.5, 2}
	f.Fuzz(func(t *testing.T, seed uint64, mR, nR, kR, wR, aR, bR uint8) {
		m := 1 + int(mR)%96
		n := 1 + int(nR)%48
		k := 1 + int(kR)%48
		workers := 1 + int(wR)%8
		alpha := alphas[int(aR)%len(alphas)]
		beta := betas[int(bR)%len(betas)]

		a := randomDense32(m, k, seed)
		b := randomDense32(k, n, seed^0x9e3779b97f4a7c15)
		c0 := randomDense32(m, n, seed^0xdeadbeef)

		got := c0.Clone()
		SgemmPacked(false, false, alpha, a, b, beta, got, workers)

		// Envelope oracle against a float64 reference.
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := float64(beta) * float64(c0.At(i, j))
				mag := math.Abs(want)
				for p := 0; p < k; p++ {
					prod := float64(alpha) * float64(a.At(i, p)) * float64(b.At(p, j))
					want += prod
					mag += math.Abs(prod)
				}
				bound := 8 * float64(k+2) * ulpEps32 * (mag + 1)
				if d := math.Abs(float64(got.At(i, j)) - want); d > bound || math.IsNaN(d) {
					t.Fatalf("C(%d,%d)=%v want %v (m=%d n=%d k=%d alpha=%v beta=%v workers=%d)",
						i, j, got.At(i, j), want, m, n, k, alpha, beta, workers)
				}
			}
		}

		// Worker invariance: a different worker count must be bitwise equal.
		again := c0.Clone()
		SgemmPacked(false, false, alpha, a, b, beta, again, 1+workers%8)
		if !equal32(got, again) {
			t.Fatalf("result depends on worker count (m=%d n=%d k=%d)", m, n, k)
		}
	})
}

// FuzzLUSolve checks that whenever factorization succeeds, the solve
// passes the HPL residual test.
func FuzzLUSolve(f *testing.F) {
	f.Add(uint64(3), uint8(8))
	f.Add(uint64(99), uint8(25))
	f.Fuzz(func(t *testing.T, seed uint64, nR uint8) {
		n := 1 + int(nR)%48
		a, b := matrix.RandomSystem(n, seed)
		lu := a.Clone()
		piv := make([]int, n)
		if err := Dgetrf(lu, piv, 8); err != nil {
			return
		}
		x := LUSolve(lu, piv, b)
		if r := matrix.Residual(a, x, b); r > matrix.ResidualThreshold {
			t.Fatalf("residual %g for n=%d seed=%d", r, n, seed)
		}
	})
}
