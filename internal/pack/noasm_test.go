//go:build noasm

package pack

import "testing"

// Under the noasm tag no assembly is linked: the probe must say so, which
// is what sends MicroKernel, MicroKernel32 and blas's level-1 primitive to
// their pure-Go loops (TestMicroKernelDispatchFollowsKernelGates then
// confirms the unfused rounding); the generic Gemm must show the same in
// both instantiations.
func TestNoasmTagDisablesVectorKernels(t *testing.T) {
	if VectorKernel() || UseVector() || VectorKernel32() {
		t.Fatal("noasm build reports a vector kernel")
	}
	// (Where the compiler itself fuses the Go kernels, rounding shows nothing.)
	if !fmaProbe(microKernelScalar) && (gemmProbe[float64]() || gemmProbe[float32]()) {
		t.Fatal("noasm build: the generic Gemm produced a fused result")
	}
}
