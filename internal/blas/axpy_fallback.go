//go:build !amd64 || noasm

package blas

// The vector axpy primitives are never called when their gates report
// false, which they always do on non-amd64 platforms and under the noasm
// tag.

func axpyVector(alpha float64, x, y []float64) {
	panic("blas: vector axpy unavailable on this platform")
}

func axpyVector32(alpha float32, x, y []float32) {
	panic("blas: vector axpy unavailable on this platform")
}
