//go:build noasm

package pack

import "testing"

// Under the noasm tag no assembly is linked: the probe must say so, which
// is what sends MicroKernel, MicroKernel32 and blas's level-1 primitive to
// their pure-Go loops (TestMicroKernelDispatchFollowsKernelGates then
// confirms the unfused rounding).
func TestNoasmTagDisablesVectorKernels(t *testing.T) {
	if VectorKernel() || UseVector() {
		t.Fatal("noasm build reports a vector kernel")
	}
}
