package matrix

import "unsafe"

// The generic numeric core reaches its per-type leaves — the assembly
// kernels and the two reference GEMM loops, which exist for float64 or
// float32 only — through the helpers below. Is64 is decided by the
// element size, which the compiler knows in every instantiation: the test
// and the branch it guards fold away, so a leaf is selected at compile
// time and costs nothing per call (DESIGN.md §16.2). The reinterpreting
// helpers are the only unsafe code in the core; each refuses an element
// type of the wrong width, because a float32 slice read as float64 would
// corrupt silently.

// Is64 reports whether T is eight bytes wide, that is float64 or a type
// defined on it.
func Is64[T Float]() bool {
	var z T
	return unsafe.Sizeof(z) == 8
}

// Slice64 returns s as a []float64 over the same memory.
func Slice64[T Float](s []T) []float64 {
	if !Is64[T]() {
		panic("matrix: Slice64 of a 4-byte element type")
	}
	return *(*[]float64)(unsafe.Pointer(&s))
}

// Slice32 returns s as a []float32 over the same memory.
func Slice32[T Float](s []T) []float32 {
	if Is64[T]() {
		panic("matrix: Slice32 of an 8-byte element type")
	}
	return *(*[]float32)(unsafe.Pointer(&s))
}

// As64 returns m itself, typed as the float64 matrix it is.
func (m *Of[T]) As64() *Dense {
	if !Is64[T]() {
		panic("matrix: As64 of a 4-byte element type")
	}
	return (*Dense)(unsafe.Pointer(m))
}

// As32 returns m itself, typed as the float32 matrix it is.
func (m *Of[T]) As32() *Dense32 {
	if Is64[T]() {
		panic("matrix: As32 of an 8-byte element type")
	}
	return (*Dense32)(unsafe.Pointer(m))
}
