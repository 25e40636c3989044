package pack

import (
	"math"
	"os"
	"testing"

	"phihpl/internal/matrix"
)

// fmaProbe runs kernel on a 6×8 block whose every element is
// (−1)·1 + (1+2⁻³⁰)², a sum that shows which kernel produced it: fused, the
// second product keeps its 2⁻⁶⁰ term through the add and the result is
// 2⁻²⁹+2⁻⁶⁰; rounded separately the term is gone and the result is 2⁻²⁹.
func fmaProbe(kernel func(aTile []float64, tileM, k int, bTile, c []float64, ldc, rows, cols int)) (fused bool) {
	const k = 2
	x := 1 + 0x1p-30
	aTile := make([]float64, DefaultTileM*k)
	bTile := make([]float64, k*TileN)
	for i := 0; i < DefaultTileM; i++ {
		aTile[i], aTile[DefaultTileM+i] = -1, x
	}
	for j := 0; j < TileN; j++ {
		bTile[j], bTile[TileN+j] = 1, x
	}
	c := make([]float64, MicroM*TileN)
	kernel(aTile, DefaultTileM, k, bTile, c, TileN, MicroM, TileN)
	switch c[0] {
	case 0x1p-29 + 0x1p-60:
		return true
	case 0x1p-29:
		return false
	}
	panic("fmaProbe: neither the fused nor the unfused value")
}

// gemmProbe is fmaProbe one layer up and in either precision: the same
// two-term sum (with 2⁻¹² for float32, whose square also loses its last
// term to rounding) on one full tile, through PackA, PackB and the generic
// Gemm — so it reads which leaf Kernel[T] reached, MicroKernel32 included.
func gemmProbe[T matrix.Float]() (fused bool) {
	e := 30
	if !matrix.Is64[T]() {
		e = 12
	}
	x := T(1 + math.Ldexp(1, -e))
	m, n := DefaultTileMOf[T](), TileNOf[T]()
	a, b, c := matrix.New[T](m, 2), matrix.New[T](2, n), matrix.New[T](m, n)
	for i := 0; i < m; i++ {
		a.Set(i, 0, -1)
		a.Set(i, 1, x)
	}
	for j := 0; j < n; j++ {
		b.Set(0, j, 1)
		b.Set(1, j, x)
	}
	Gemm(PackA(a, 0), PackB(b), c, 1)
	switch c.At(m-1, n-1) {
	case T(math.Ldexp(1, 1-e) + math.Ldexp(1, -2*e)):
		return true
	case T(math.Ldexp(1, 1-e)):
		return false
	}
	panic("gemmProbe: neither the fused nor the unfused value")
}

// TestMicroKernelDispatchFollowsKernelGates asserts which kernel
// MicroKernel actually ran — read off the rounding of its result, not off
// a flag — under each gate: the environment switch of the scalar-oracle CI
// leg, a build or CPU without the assembly, and DisableVectorKernel. The
// generic Gemm is held to the same gates in both instantiations: float64
// must reach dgemm6x8 exactly when UseVector() says so, float32 must reach
// sgemm4x16 exactly when its own gate (DisableVectorKernel32) is open.
func TestMicroKernelDispatchFollowsKernelGates(t *testing.T) {
	if fmaProbe(microKernelScalar) {
		t.Skip("this compiler fuses the Go kernel's multiply-add (arm64, GOAMD64=v3): rounding cannot show the route")
	}
	if os.Getenv("PHIHPL_DISABLE_VECTOR_KERNEL") != "" && (UseVector() || fmaProbe(MicroKernel)) {
		t.Fatal("PHIHPL_DISABLE_VECTOR_KERNEL is set but MicroKernel still ran the FMA kernel")
	}
	gemmFollowsGates := func(when string) {
		t.Helper()
		if got := gemmProbe[float64](); got != UseVector() {
			t.Fatalf("%s: Gemm[float64] ran the FMA kernel = %v, UseVector() = %v", when, got, UseVector())
		}
		if got, want := gemmProbe[float32](), VectorKernel32() && !DisableVectorKernel32; got != want {
			t.Fatalf("%s: Gemm[float32] ran the FMA kernel = %v, its gate says %v", when, got, want)
		}
	}
	gemmFollowsGates("as started")
	if os.Getenv("PHIHPL_DISABLE_VECTOR_KERNEL") != "" && gemmProbe[float32]() {
		t.Fatal("PHIHPL_DISABLE_VECTOR_KERNEL is set but Gemm[float32] still ran the FMA kernel")
	}
	if !VectorKernel() {
		if UseVector() || fmaProbe(MicroKernel) {
			t.Fatal("fused result without a vector kernel (noasm build or unsupported CPU)")
		}
		return
	}
	saved, saved32 := DisableVectorKernel, DisableVectorKernel32
	defer func() { DisableVectorKernel, DisableVectorKernel32 = saved, saved32 }()
	DisableVectorKernel, DisableVectorKernel32 = true, false
	if UseVector() || fmaProbe(MicroKernel) {
		t.Fatal("DisableVectorKernel did not route MicroKernel through the scalar kernel")
	}
	gemmFollowsGates("FP64 gate closed, FP32 open")
	DisableVectorKernel, DisableVectorKernel32 = false, true
	if !UseVector() || !fmaProbe(MicroKernel) {
		t.Fatal("vector kernel not dispatched on a capable CPU")
	}
	gemmFollowsGates("FP64 gate open, FP32 closed")
}
