package pack

import (
	"os"
	"testing"
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

// TestMicroKernelDispatchFollowsKernelGates asserts which kernel
// MicroKernel actually ran — read off the rounding of its result, not off
// a flag — under each gate: the environment switch of the scalar-oracle CI
// leg, a build or CPU without the assembly, and DisableVectorKernel.
func TestMicroKernelDispatchFollowsKernelGates(t *testing.T) {
	if fmaProbe(microKernelScalar) {
		t.Skip("this compiler fuses the Go kernel's multiply-add (arm64, GOAMD64=v3): rounding cannot show the route")
	}
	if os.Getenv("PHIHPL_DISABLE_VECTOR_KERNEL") != "" && (UseVector() || fmaProbe(MicroKernel)) {
		t.Fatal("PHIHPL_DISABLE_VECTOR_KERNEL is set but MicroKernel still ran the FMA kernel")
	}
	if !VectorKernel() {
		if UseVector() || fmaProbe(MicroKernel) {
			t.Fatal("fused result without a vector kernel (noasm build or unsupported CPU)")
		}
		return
	}
	saved := DisableVectorKernel
	defer func() { DisableVectorKernel = saved }()
	DisableVectorKernel = true
	if UseVector() || fmaProbe(MicroKernel) {
		t.Fatal("DisableVectorKernel did not route MicroKernel through the scalar kernel")
	}
	DisableVectorKernel = false
	if !UseVector() || !fmaProbe(MicroKernel) {
		t.Fatal("vector kernel not dispatched on a capable CPU")
	}
}
