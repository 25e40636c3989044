// Package stream implements the STREAM memory-bandwidth kernels (McCalpin)
// referenced in Table I of the paper: Copy, Scale, Add and Triad, in
// serial and goroutine-parallel forms, together with byte-traffic
// accounting.
//
// The machine models use the published numbers (150 GB/s Knights Corner,
// 76 GB/s Sandy Bridge EP); the real kernels exist so the repository's
// bandwidth assumptions are runnable and testable on the host.
package stream

import "sync"

// Op identifies a STREAM kernel.
type Op int

const (
	// CopyOp: c = a.
	CopyOp Op = iota
	// ScaleOp: b = scalar * c.
	ScaleOp
	// AddOp: c = a + b.
	AddOp
	// TriadOp: a = b + scalar * c.
	TriadOp
)

func (o Op) String() string {
	switch o {
	case CopyOp:
		return "copy"
	case ScaleOp:
		return "scale"
	case AddOp:
		return "add"
	default:
		return "triad"
	}
}

// Copy performs dst = src.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("stream: length mismatch")
	}
	copy(dst, src)
}

// Scale performs dst = scalar * src.
func Scale(dst, src []float64, scalar float64) {
	if len(dst) != len(src) {
		panic("stream: length mismatch")
	}
	for i, v := range src {
		dst[i] = scalar * v
	}
}

// Add performs dst = a + b.
func Add(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("stream: length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Triad performs dst = a + scalar * b — the kernel whose bandwidth Table I
// quotes.
func Triad(dst, a, b []float64, scalar float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("stream: length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + scalar*b[i]
	}
}

// TriadParallel runs Triad with the index space split over `workers`
// goroutines.
func TriadParallel(dst, a, b []float64, scalar float64, workers int) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("stream: length mismatch")
	}
	n := len(dst)
	if workers <= 1 || n < 4*workers {
		Triad(dst, a, b, scalar)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			Triad(dst[lo:hi], a[lo:hi], b[lo:hi], scalar)
		}(lo, hi)
	}
	wg.Wait()
}

// BytesMoved returns the memory traffic of one kernel invocation on
// length-n operands, per the STREAM counting rules (each element read or
// written once, 8 bytes each).
func BytesMoved(op Op, n int) float64 {
	switch op {
	case CopyOp, ScaleOp:
		return 16 * float64(n)
	default: // Add, Triad: two reads + one write
		return 24 * float64(n)
	}
}
