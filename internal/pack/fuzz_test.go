package pack

import (
	"math"
	"testing"
)

// FuzzMicroKernel drives the FP64 micro-kernel dispatcher with arbitrary
// tile shapes, depths and C strides and holds it to three invariants
// against the always-on scalar oracle (called directly — no global
// toggles, so the fuzzer exercises exactly the dispatch the production
// drivers use):
//
//  1. never panic, for any rows/cols/k/ldc combination the packed
//     drivers can legally produce;
//  2. element-wise agreement within the 8·(k+2)·ulp forward-error
//     envelope — the vector kernel fuses each multiply-add (VFMADD) while
//     the scalar oracle rounds the product first, so bit-equality is not
//     the contract across kernels, the envelope is;
//  3. no write outside the rows×cols window: C rows are padded to a
//     larger stride and the padding must survive bit-exactly.
//
// It also re-runs the dispatcher to confirm determinism (same inputs →
// bitwise same output), the property the worker-invariance suites build
// on. Run with `go test -fuzz=FuzzMicroKernel` for a deep hunt; plain
// `go test` exercises the seed corpus plus testdata/fuzz regressions.
func FuzzMicroKernel(f *testing.F) {
	f.Add(uint64(1), uint8(29), uint8(7), uint8(15), uint8(3)) // full tile, padded ldc
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(0))   // 1×1×1 degenerate
	f.Add(uint64(3), uint8(5), uint8(7), uint8(95), uint8(1))  // deep k, 6 rows
	f.Add(uint64(4), uint8(28), uint8(3), uint8(40), uint8(0)) // partial cols, tight ldc
	f.Add(uint64(5), uint8(11), uint8(6), uint8(1), uint8(4))  // k = 1
	f.Fuzz(func(t *testing.T, seed uint64, rowsR, colsR, kR, padR uint8) {
		rows := 1 + int(rowsR)%DefaultTileM // 1..TileM
		cols := 1 + int(colsR)%TileN        // 1..TileN
		k := 1 + int(kR)%96
		ldc := cols + int(padR)%5
		tileM := DefaultTileM

		// splitmix64-driven values in [-1, 1): wide enough to shake out
		// indexing bugs, tame enough that overflow never muddies the
		// FMA-vs-separate-rounding comparison.
		s := seed
		next := func() float64 {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			return float64(int64(z>>11))/float64(1<<52) - 1
		}
		aTile := make([]float64, tileM*k)
		for i := range aTile {
			aTile[i] = next()
		}
		bTile := make([]float64, k*TileN)
		for i := range bTile {
			bTile[i] = next()
		}
		const sentinel = math.MaxFloat64 / 3
		c0 := make([]float64, rows*ldc)
		for i := range c0 {
			if i%ldc >= cols {
				c0[i] = sentinel
			} else {
				c0[i] = next()
			}
		}

		got := append([]float64(nil), c0...)
		MicroKernel(aTile, tileM, k, bTile, got, ldc, rows, cols)
		want := append([]float64(nil), c0...)
		microKernelScalar(aTile, tileM, k, bTile, want, ldc, rows, cols)

		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				mag := math.Abs(c0[i*ldc+j])
				for p := 0; p < k; p++ {
					mag += math.Abs(aTile[p*tileM+i] * bTile[p*TileN+j])
				}
				bound := 8 * float64(k+2) * (0x1p-52) * (mag + 1)
				d := math.Abs(got[i*ldc+j] - want[i*ldc+j])
				if d > bound || math.IsNaN(d) {
					t.Fatalf("C(%d,%d)=%v scalar %v (rows=%d cols=%d k=%d ldc=%d)",
						i, j, got[i*ldc+j], want[i*ldc+j], rows, cols, k, ldc)
				}
			}
			for j := cols; j < ldc; j++ {
				if got[i*ldc+j] != sentinel || want[i*ldc+j] != sentinel {
					t.Fatalf("write outside rows×cols window at (%d,%d)", i, j)
				}
			}
		}

		// Determinism: the dispatcher must be a pure function of its
		// inputs (same bits out every time), whichever kernel it picked.
		again := append([]float64(nil), c0...)
		MicroKernel(aTile, tileM, k, bTile, again, ldc, rows, cols)
		for i := range got {
			if got[i] != again[i] && !(math.IsNaN(got[i]) && math.IsNaN(again[i])) {
				t.Fatalf("MicroKernel not deterministic at flat index %d", i)
			}
		}
	})
}

// FuzzMicroKernel32 holds the FP32 micro-kernel dispatcher to its one
// contract with C, whichever kernel the gate picks: every rows×cols
// element of C gets the block sum added exactly once, with one separately
// rounded float32 add. The oracle runs the same dispatcher into a zeroed
// C, then adds that into the original C in Go; the two must agree bit for
// bit. Row counts that are not a multiple of the 4-row vector block, tiles
// narrower than 16 columns and padded C strides send the vector kernel
// through its staged edge blocks, and the padding, a guard row past the
// last C row included, must survive bit for bit.
func FuzzMicroKernel32(f *testing.F) {
	f.Add(uint64(1), uint8(31), uint8(15), uint8(15), uint8(3)) // full tile, padded ldc
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(0))    // 1×1×1 degenerate
	f.Add(uint64(3), uint8(5), uint8(15), uint8(95), uint8(1))  // deep k, a full block and a 2-row edge
	f.Add(uint64(4), uint8(28), uint8(6), uint8(40), uint8(0))  // rows mod 4 = 1, partial cols, tight ldc
	f.Add(uint64(5), uint8(10), uint8(15), uint8(1), uint8(4))  // k = 1, rows mod 4 = 3
	f.Fuzz(func(t *testing.T, seed uint64, rowsR, colsR, kR, padR uint8) {
		rows := 1 + int(rowsR)%DefaultTileM32
		cols := 1 + int(colsR)%TileN32
		k := 1 + int(kR)%96
		ldc := cols + int(padR)%5
		tileM := DefaultTileM32

		s := seed
		next := func() float32 { // splitmix64 → [-1, 1)
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			return float32(float64(int64(z>>11))/float64(1<<52) - 1)
		}
		aTile := make([]float32, tileM*k)
		for i := range aTile {
			aTile[i] = next()
		}
		bTile := make([]float32, k*TileN32)
		for i := range bTile {
			bTile[i] = next()
		}
		const sentinel = math.MaxFloat32 / 3
		inside := func(i int) bool { return i < rows*ldc && i%ldc < cols }
		c0 := make([]float32, (rows+1)*ldc)
		for i := range c0 {
			if inside(i) {
				c0[i] = next()
			} else {
				c0[i] = sentinel
			}
		}

		got := append([]float32(nil), c0...)
		MicroKernel32(aTile, tileM, k, bTile, got, ldc, rows, cols)
		sum := make([]float32, len(c0))
		MicroKernel32(aTile, tileM, k, bTile, sum, ldc, rows, cols)

		for i := range got {
			want := c0[i]
			if inside(i) {
				want = c0[i] + sum[i]
			} else if sum[i] != 0 {
				t.Fatalf("zeroed C written outside the window at flat index %d", i)
			}
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("C flat %d (row %d col %d) = %v, want %v (rows=%d cols=%d k=%d ldc=%d)",
					i, i/ldc, i%ldc, got[i], want, rows, cols, k, ldc)
			}
		}
	})
}
