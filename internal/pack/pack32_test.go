package pack_test

import (
	"math"
	"testing"
	"testing/quick"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

func rand32(n int, seed uint64) []float32 {
	p := matrix.NewPRNG(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(p.Float64())
	}
	return out
}

// dense32 views a flat row-major buffer as a compact rows×cols matrix.
func dense32(data []float32, rows, cols int) *matrix.Dense32 {
	return &matrix.Dense32{Rows: rows, Cols: cols, Stride: cols, Data: data}
}

func TestPackA32Layout(t *testing.T) {
	m, k := 60, 5
	a := rand32(m*k, 1)
	p := pack.PackA(dense32(a, m, k), 30)
	if p.Tiles() != 2 || p.TileRows(1) != 30 {
		t.Fatalf("tiles=%d rows=%d", p.Tiles(), p.TileRows(1))
	}
	// Column-major within a tile: element (i=35, k=2).
	if p.Tile(1)[2*30+5] != a[35*k+2] {
		t.Error("layout violated")
	}
	// Default tile height: the FP32 tile is 32 rows (a multiple of the
	// 4-row vector block), not the FP64 path's 30.
	if pack.PackA(dense32(a, m, k), 0).TileM != pack.DefaultTileM32 {
		t.Error("default tileM")
	}
}

func TestPackB32Layout(t *testing.T) {
	k, n := 6, 40
	b := rand32(k*n, 2)
	p := pack.PackB(dense32(b, k, n))
	if p.Tiles() != 3 {
		t.Fatalf("tiles = %d", p.Tiles())
	}
	if p.TileCols(2) != 8 {
		t.Errorf("last tile cols = %d, want 8", p.TileCols(2))
	}
	// Row-major within tile 1: element (k=3, j=20).
	if p.Tile(1)[3*pack.TileN32+4] != b[3*n+20] {
		t.Error("layout violated")
	}
}

func TestGemm32MatchesSgemm(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{30, 16, 4}, {31, 17, 7}, {90, 48, 20}, {1, 1, 1}, {64, 33, 11},
	} {
		a := rand32(tc.m*tc.k, uint64(tc.m))
		b := rand32(tc.k*tc.n, uint64(tc.n))
		got := rand32(tc.m*tc.n, 9)
		want := append([]float32(nil), got...)

		pack.Gemm(pack.PackA(dense32(a, tc.m, tc.k), 0), pack.PackB(dense32(b, tc.k, tc.n)), dense32(got, tc.m, tc.n), 2)
		blas.Sgemm(tc.m, tc.n, tc.k, 1, a, tc.k, b, tc.n, 1, want, tc.n)

		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("%+v: mismatch at %d: %v vs %v", tc, i, got[i], want[i])
			}
		}
	}
}

func TestGemm32Panics(t *testing.T) {
	a := pack.PackA(dense32(rand32(12, 1), 4, 3), 0)
	b := pack.PackB(dense32(rand32(8, 2), 2, 4)) // K mismatch
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected K mismatch panic")
			}
		}()
		pack.Gemm(a, b, matrix.NewDense32(4, 4), 1)
	}()
	b2 := pack.PackB(dense32(rand32(12, 2), 3, 4))
	defer func() {
		if recover() == nil {
			t.Error("expected C shape panic")
		}
	}()
	pack.Gemm(a, b2, matrix.NewDense32(4, 2), 1) // C narrower than B
}

func TestGemm32Property(t *testing.T) {
	f := func(seed uint64, mR, nR, kR uint8) bool {
		m := 1 + int(mR)%64
		n := 1 + int(nR)%40
		k := 1 + int(kR)%12
		a := rand32(m*k, seed)
		b := rand32(k*n, seed^5)
		got := make([]float32, m*n)
		pack.Gemm(pack.PackA(dense32(a, m, k), 0), pack.PackB(dense32(b, k, n)), dense32(got, m, n), 3)
		want := make([]float32, m*n)
		blas.Sgemm(m, n, k, 1, a, k, b, n, 0, want, n)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
