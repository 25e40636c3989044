//go:build !amd64 || noasm

package blas

// axpyVector is never called when pack.UseVector reports false, which it
// always does on non-amd64 platforms and under the noasm tag.
func axpyVector(alpha float64, x, y []float64) {
	panic("blas: vector axpy unavailable on this platform")
}
