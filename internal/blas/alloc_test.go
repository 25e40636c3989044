package blas

import (
	"math/rand"
	"testing"

	"phihpl/internal/matrix"
)

// Steady-state allocation regression tests. DgemmPacked's allocation
// count used to scale with the K-block count (14 allocs/op at one
// K-block, 28 at two — the n=512 benchmark rows), because every K-block
// re-allocated the packed-operand headers, two region closures, and
// per-helper task closures inside the pool. All of that state is now
// recycled (headers in packBuf, regions and their task closures in the
// pool's sync.Pool), leaving a small per-CALL constant: the two hoisted
// region closures, the scaleRows closure, and slice-header escapes.
//
// The absolute bound is deliberately loose (a GC run mid-measurement can
// evict a sync.Pool entry and charge its re-allocation here); the growth
// bound is the actual regression guard — allocations must not scale with
// ceil(k/packKC).

func steadyAllocs[T matrix.Float](t *testing.T, n int) float64 {
	t.Helper()
	a := matrix.New[T](n, n)
	b := matrix.New[T](n, n)
	c := matrix.New[T](n, n)
	rng := rand.New(rand.NewSource(7))
	for i := range a.Data {
		a.Data[i] = T(rng.Float64())
	}
	for i := range b.Data {
		b.Data[i] = T(rng.Float64())
	}
	// Warm the buffer pools so only steady-state cost is measured.
	GemmPacked(false, false, 1, a, b, 0, c, 4)
	return testing.AllocsPerRun(5, func() {
		GemmPacked(false, false, 1, a, b, 0, c, 4)
	})
}

// Both precisions run the one generic driver, so the float32 row pins
// what the FP32 twin never had: headers and closures hoisted out of the
// K-block loop.
func TestDgemmPackedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race (5–13 allocs/op, either side of the growth bound)")
	}
	t.Run("float64", testGemmPackedSteadyStateAllocs[float64])
	t.Run("float32", testGemmPackedSteadyStateAllocs[float32])
}

func testGemmPackedSteadyStateAllocs[T matrix.Float](t *testing.T) {
	one := steadyAllocs[T](t, 256)   // k=256: one K-block
	two := steadyAllocs[T](t, 512)   // k=512: two K-blocks
	four := steadyAllocs[T](t, 1024) // k=1024: three K-blocks
	t.Logf("allocs/op: n=256 %.0f, n=512 %.0f, n=1024 %.0f", one, two, four)
	if two > 12 {
		t.Errorf("GemmPacked n=512: %.0f allocs/op in steady state, want <= 12", two)
	}
	if four-one > 4 {
		t.Errorf("GemmPacked allocations grow with K-block count: %.0f at one block, %.0f at three", one, four)
	}
}

// prepackedAllocs counts the allocations of one steady-state
// PrepackB + GemmPrepacked + Release round against a standing packed A —
// what every trailing-update task of the LU and 2D drivers does.
func prepackedAllocs[T matrix.Float]() float64 {
	const m, n, k = 256, 192, 64
	a, b, c := matrix.New[T](m, k), matrix.New[T](k, n), matrix.New[T](m, n)
	pa := PrepackA(a, -1)
	defer pa.Release()
	round := func() {
		pb := PrepackB(b)
		GemmPrepacked(pa, pb, c, 1)
		pb.Release()
	}
	round() // warm the B-slab pool
	return testing.AllocsPerRun(20, round)
}

// TestPrepackedSteadyStateAllocsSamePerType pins the defect the collapse
// removed by construction: the FP32 twin allocated a header slice per
// PrepackB and drew tall A slabs and small B blocks from one pool. Both
// precisions now run the same pooled code, so a round costs the same
// number of allocations in each, and the B side recycles its headers.
func TestPrepackedSteadyStateAllocsSamePerType(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	a64, a32 := prepackedAllocs[float64](), prepackedAllocs[float32]()
	t.Logf("allocs/round: float64 %.0f, float32 %.0f", a64, a32)
	if a32 != a64 {
		t.Errorf("a PrepackB+GemmPrepacked+Release round allocates %.0f times for float32, %.0f for float64", a32, a64)
	}
	if a64 > 3 {
		t.Errorf("steady-state round allocates %.0f times, want the operand handle and the region closure only", a64)
	}
}
