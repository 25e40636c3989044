//go:build !amd64 || noasm

package pack

// Non-amd64 platforms — and amd64 built with the `noasm` tag — always use
// the portable scalar kernels; the vector gates report unavailable and
// the block entry points are never reached.

func haveAsmKernel() bool { return false }

// kernelBlock is never called when haveAsmKernel reports false.
func kernelBlock(aTile []float64, tileM, k, r0 int, bTile []float64, c []float64, ldc int) {
	panic("pack: vector FP64 kernel unavailable on this platform")
}

// kernel32Block is never called when haveAsmKernel reports false.
func kernel32Block(aTile []float32, tileM, k, r0 int, bTile []float32, c []float32, ldc int) {
	panic("pack: vector FP32 kernel unavailable on this platform")
}
