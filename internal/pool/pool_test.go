package pool

import (
	"runtime"
	"sync/atomic"
	"testing"

	"phihpl/internal/testutil"
)

func TestDoCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, workers := range []int{0, 1, 2, 4, 16, 2 * n} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, n+1)
			Do(n, workers, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("index %d out of [0,%d)", i, n)
				}
				if seen[i].Swap(true) {
					t.Errorf("index %d executed twice", i)
				}
				hits.Add(1)
			})
			if int(hits.Load()) != n {
				t.Fatalf("n=%d workers=%d: %d executions", n, workers, hits.Load())
			}
		}
	}
}

func TestDoSerialOrderWhenSingleWorker(t *testing.T) {
	// workers<=1 must run in index order on the caller — the property the
	// serial fallback of the BLAS layer relies on.
	var got []int
	Do(5, 1, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestDoConcurrentRegions(t *testing.T) {
	defer testutil.NoLeaks(t)()
	// Many regions in flight at once: every one must still complete (the
	// saturated-queue path drops helpers, never work).
	done := make(chan int64)
	for r := 0; r < 8; r++ {
		go func() {
			var sum atomic.Int64
			Do(200, 4, func(i int) { sum.Add(int64(i)) })
			done <- sum.Load()
		}()
	}
	want := int64(199 * 200 / 2)
	for r := 0; r < 8; r++ {
		if got := <-done; got != want {
			t.Fatalf("region sum = %d, want %d", got, want)
		}
	}
}

func TestSteadyStateSpawnsNoGoroutines(t *testing.T) {
	// Warm the pool, then verify repeated regions do not grow the
	// goroutine count: the workers are persistent, not per-call.
	Do(64, 8, func(int) {})
	runtime.Gosched()
	base := runtime.NumGoroutine()
	for iter := 0; iter < 200; iter++ {
		Do(64, 8, func(int) {})
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Errorf("goroutines grew from %d to %d across 200 regions", base, got)
	}
}

func TestSize(t *testing.T) {
	if Size() < 1 {
		t.Errorf("Size() = %d", Size())
	}
}

// TestDoSteadyStateAllocs pins the pool's own per-region allocation cost:
// regions and their helper-task closures are recycled through a
// sync.Pool, so a steady-state Do costs zero heap allocations beyond
// whatever the caller's fn closure captures. This is the pool half of the
// DgemmPacked allocs-per-op regression (the count used to grow with the
// number of regions per call).
func TestDoSteadyStateAllocs(t *testing.T) {
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	Do(64, 4, fn) // warm the region pool
	allocs := testing.AllocsPerRun(20, func() {
		Do(64, 4, fn)
	})
	if allocs > 1 {
		t.Errorf("steady-state Do allocates %.0f objects per region, want <= 1", allocs)
	}
}
