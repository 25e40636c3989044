package blas

import (
	"testing"

	"phihpl/internal/matrix"
)

// GemmPrepacked[float32]'s pack-once-reuse must be bitwise the per-call
// SgemmPacked result — the contract that lets the mixed-precision 2D HPL
// driver share packed FP32 operands across a block row/column — for every
// shape, ragged tiles and a second K-block included, and independent of
// how many calls reuse the same prepacked operand.
func TestSGemmPrepackedBitwiseMatchesSgemmPacked(t *testing.T) {
	for _, sh := range []struct{ m, n, k int }{
		{32, 16, 16}, // exactly one tile
		{64, 48, 32}, // several tiles
		{33, 17, 19}, // ragged everything
		{1, 1, 16},
		{95, 23, 384}, // k at the K-block boundary
		{95, 23, 389}, // one row of B past it: two K-blocks
	} {
		a := matrix.RandomGeneral(sh.m, sh.k, 11).ToDense32()
		b := matrix.RandomGeneral(sh.k, sh.n, 12).ToDense32()
		want := matrix.RandomGeneral(sh.m, sh.n, 13).ToDense32()
		got := want.Clone()

		SgemmPacked(false, false, -1, a, b, 1, want, 2)

		pa := PrepackA(a, -1)
		pb := PrepackB(b)
		// Reuse both operands twice: second use must still be bitwise.
		scratch := matrix.NewDense32(sh.m, sh.n)
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
func TestSGemmPrepackedGuards(t *testing.T) {
	var nilA *PrepackedA[float32]
	var nilB *PrepackedB[float32]
	nilA.Release()
	nilB.Release()

	pa := PrepackA(matrix.RandomGeneral(8, 16, 1).ToDense32(), -1)
	pb := PrepackB(matrix.RandomGeneral(17, 8, 1).ToDense32()) // k mismatch
	defer func() {
		if recover() == nil {
			t.Error("k mismatch must panic")
		}
	}()
	GemmPrepacked(pa, pb, matrix.NewDense32(8, 8), 1)
}

// Dense32.CopyFrom copies element-wise and enforces shape agreement.
func TestDense32CopyFrom(t *testing.T) {
	src := matrix.RandomGeneral(5, 7, 3).ToDense32()
	dst := matrix.NewDense32(5, 7)
	dst.CopyFrom(src)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if dst.At(i, j) != src.At(i, j) {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, dst.At(i, j), src.At(i, j))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch must panic")
		}
	}()
	matrix.NewDense32(4, 7).CopyFrom(src)
}
