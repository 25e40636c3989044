//go:build amd64 && !noasm

package blas

// daxpyAVX2 computes y[i] += alpha*x[i] for i < n with a separately
// rounded multiply and add per element (no FMA), which makes it
// bit-identical to axpyScalar. n must be positive and both pointers must
// address at least n elements.
//
//go:noescape
func daxpyAVX2(alpha float64, x, y *float64, n int64)

// saxpyAVX2 is daxpyAVX2 in single precision, under the same contract:
// bit-identical to axpyScalar[float32].
//
//go:noescape
func saxpyAVX2(alpha float32, x, y *float32, n int64)

// axpyVector runs the float64 assembly primitive over x and y[:len(x)].
// Caller guarantees len(x) > 0, len(y) >= len(x) and pack.UseVector().
func axpyVector(alpha float64, x, y []float64) {
	y = y[:len(x)]
	daxpyAVX2(alpha, &x[0], &y[0], int64(len(x)))
}

// axpyVector32 runs the float32 assembly primitive over x and y[:len(x)].
// Caller guarantees len(x) > 0, len(y) >= len(x) and the FP32 kernel gate
// (pack.VectorKernel32() && !pack.DisableVectorKernel32).
func axpyVector32(alpha float32, x, y []float32) {
	y = y[:len(x)]
	saxpyAVX2(alpha, &x[0], &y[0], int64(len(x)))
}
