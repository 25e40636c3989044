package pack_test

import (
	"testing"
	"testing/quick"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/pack"
)

func TestPackARoundTrip(t *testing.T) {
	for _, m := range []int{1, 29, 30, 31, 60, 95} {
		a := matrix.RandomGeneral(m, 17, uint64(m))
		p := pack.PackA(a, pack.DefaultTileM)
		back := matrix.NewDense(m, 17)
		p.Unpack(back)
		if !matrix.Equal(a, back) {
			t.Errorf("m=%d: round trip failed", m)
		}
	}
}

func TestPackATileLayoutColumnMajor(t *testing.T) {
	a := matrix.RandomGeneral(60, 5, 3)
	p := pack.PackA(a, 30)
	// Element (i,k) of tile t lives at Tile(t)[k*30 + i-30t].
	tile1 := p.Tile(1)
	if tile1[2*30+5] != a.At(35, 2) {
		t.Error("column-major tile layout violated")
	}
	if p.Tiles() != 2 {
		t.Errorf("tiles = %d", p.Tiles())
	}
	if p.TileRows(1) != 30 {
		t.Errorf("tile rows = %d", p.TileRows(1))
	}
}

func TestPackAPartialTilePadded(t *testing.T) {
	a := matrix.RandomGeneral(31, 4, 9) // 30 + 1: second tile has 1 real row
	p := pack.PackA(a, 30)
	if p.Tiles() != 2 || p.TileRows(1) != 1 {
		t.Fatalf("tiles=%d rows=%d", p.Tiles(), p.TileRows(1))
	}
	tile := p.Tile(1)
	for k := 0; k < 4; k++ {
		if tile[k*30] != a.At(30, k) {
			t.Error("partial tile content wrong")
		}
		for i := 1; i < 30; i++ {
			if tile[k*30+i] != 0 {
				t.Error("padding not zero")
			}
		}
	}
}

func TestPackADefaultTileM(t *testing.T) {
	p := pack.PackA(matrix.RandomGeneral(10, 3, 1), 0)
	if p.TileM != pack.DefaultTileM {
		t.Errorf("default tileM = %d", p.TileM)
	}
	p31 := pack.PackA(matrix.RandomGeneral(62, 3, 1), pack.KernelOneTileM)
	if p31.Tiles() != 2 {
		t.Errorf("31-row tiles = %d", p31.Tiles())
	}
}

func TestPackBRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 16, 37} {
		b := matrix.RandomGeneral(13, n, uint64(n))
		p := pack.PackB(b)
		back := matrix.NewDense(13, n)
		p.Unpack(back)
		if !matrix.Equal(b, back) {
			t.Errorf("n=%d: round trip failed", n)
		}
	}
}

func TestPackBTileLayoutRowMajor(t *testing.T) {
	b := matrix.RandomGeneral(6, 16, 4)
	p := pack.PackB(b)
	// Element (k,j) of tile t at Tile(t)[k*8 + j-8t].
	tile1 := p.Tile(1)
	if tile1[3*8+2] != b.At(3, 10) {
		t.Error("row-major tile layout violated")
	}
	if p.TileCols(1) != 8 {
		t.Errorf("tile cols = %d", p.TileCols(1))
	}
}

func TestUnpackPanics(t *testing.T) {
	pa := pack.PackA(matrix.NewDense(4, 4), 30)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("A.Unpack should panic on mismatch")
			}
		}()
		pa.Unpack(matrix.NewDense(5, 4))
	}()
	pb := pack.PackB(matrix.NewDense(4, 4))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("B.Unpack should panic on mismatch")
			}
		}()
		pb.Unpack(matrix.NewDense(4, 5))
	}()
}

func TestGemmMatchesDgemm(t *testing.T) {
	cases := []struct{ m, n, k int }{
		{30, 8, 5},   // exactly one tile
		{31, 9, 7},   // partial edge tiles both ways
		{60, 16, 12}, // multiple full tiles
		{95, 23, 40}, // ragged
		{1, 1, 1},
	}
	for _, tc := range cases {
		a := matrix.RandomGeneral(tc.m, tc.k, uint64(tc.m*tc.n))
		b := matrix.RandomGeneral(tc.k, tc.n, uint64(tc.k+1))
		c0 := matrix.RandomGeneral(tc.m, tc.n, 99)

		got := c0.Clone()
		pack.Gemm(pack.PackA(a, pack.DefaultTileM), pack.PackB(b), got, 1)

		want := c0.Clone()
		blas.Dgemm(false, false, 1, a, b, 1, want)
		if d := matrix.MaxDiff(got, want); d > 1e-12 {
			t.Errorf("%dx%dx%d: maxdiff %g", tc.m, tc.n, tc.k, d)
		}
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	a := matrix.RandomGeneral(123, 40, 1)
	b := matrix.RandomGeneral(40, 77, 2)
	c0 := matrix.RandomGeneral(123, 77, 3)
	got := c0.Clone()
	pack.Gemm(pack.PackA(a, pack.DefaultTileM), pack.PackB(b), got, 8)
	want := c0.Clone()
	pack.Gemm(pack.PackA(a, pack.DefaultTileM), pack.PackB(b), want, 1)
	if d := matrix.MaxDiff(got, want); d > 1e-12 {
		t.Errorf("maxdiff %g", d)
	}
}

func TestGemmKernelOneTileHeight(t *testing.T) {
	// The 31-row variant (Basic Kernel 1 register blocking) must also be exact.
	a := matrix.RandomGeneral(93, 20, 5)
	b := matrix.RandomGeneral(20, 24, 6)
	c0 := matrix.NewDense(93, 24)
	got := c0.Clone()
	pack.Gemm(pack.PackA(a, pack.KernelOneTileM), pack.PackB(b), got, 2)
	want := c0.Clone()
	blas.Dgemm(false, false, 1, a, b, 1, want)
	if d := matrix.MaxDiff(got, want); d > 1e-12 {
		t.Errorf("maxdiff %g", d)
	}
}

func TestGemmPanics(t *testing.T) {
	a := pack.PackA(matrix.NewDense(4, 3), 30)
	b := pack.PackB(matrix.NewDense(5, 4)) // K mismatch: 3 vs 5
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	pack.Gemm(a, b, matrix.NewDense(4, 4), 1)
}

// Property: pack/unpack is the identity for arbitrary shapes.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw, kRaw uint8) bool {
		m := 1 + int(mRaw)%80
		n := 1 + int(nRaw)%40
		k := 1 + int(kRaw)%20
		a := matrix.RandomGeneral(m, k, seed)
		backA := matrix.NewDense(m, k)
		pack.PackA(a, pack.DefaultTileM).Unpack(backA)
		if !matrix.Equal(a, backA) {
			return false
		}
		b := matrix.RandomGeneral(k, n, seed^1)
		backB := matrix.NewDense(k, n)
		pack.PackB(b).Unpack(backB)
		return matrix.Equal(b, backB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: packed Gemm agrees with dense Dgemm.
func TestGemmEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw, kRaw uint8) bool {
		m := 1 + int(mRaw)%70
		n := 1 + int(nRaw)%30
		k := 1 + int(kRaw)%15
		a := matrix.RandomGeneral(m, k, seed)
		b := matrix.RandomGeneral(k, n, seed^2)
		got := matrix.NewDense(m, n)
		pack.Gemm(pack.PackA(a, pack.DefaultTileM), pack.PackB(b), got, 3)
		want := matrix.NewDense(m, n)
		blas.Dgemm(false, false, 1, a, b, 1, want)
		return matrix.MaxDiff(got, want) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
