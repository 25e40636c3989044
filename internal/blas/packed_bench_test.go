package blas

import (
	"fmt"
	"testing"

	"phihpl/internal/matrix"
)

// Benchmarks of the packed-tile GEMM at the sizes the LU drivers hit. Run
// with
//
//	go test ./internal/blas -bench 'Dgemm|RankK' -benchmem
//
// -benchmem documents the steady-state story: DgemmPacked recycles its
// packing buffers through a sync.Pool and runs on the persistent worker
// pool, so per-call allocations stay flat and no goroutines are spawned.
func benchGemm(b *testing.B, n int, f func(a, x, c *matrix.Dense)) {
	a := matrix.RandomGeneral(n, n, 1)
	x := matrix.RandomGeneral(n, n, 2)
	c := matrix.NewDense(n, n)
	f(a, x, c) // warm pools and pack buffers out of the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, x, c)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkDgemmPacked(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGemm(b, n, func(a, x, c *matrix.Dense) {
				DgemmPacked(false, false, -1, a, x, 1, c, 4)
			})
		})
	}
}

// BenchmarkRankKUpdate measures the exact trailing-update shape of the LU
// drivers: C (m×n) -= L21 (m×k) · U12 (k×n) with k = NB.
func BenchmarkRankKUpdate(b *testing.B) {
	for _, s := range []struct{ m, n, k int }{
		{512, 512, 64},
		{960, 960, 64},
	} {
		b.Run(fmt.Sprintf("m=%d/n=%d/k=%d", s.m, s.n, s.k), func(b *testing.B) {
			l := matrix.RandomGeneral(s.m, s.k, 1)
			u := matrix.RandomGeneral(s.k, s.n, 2)
			c := matrix.NewDense(s.m, s.n)
			RankKUpdate(l, u, c, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RankKUpdate(l, u, c, 4)
			}
			flops := 2 * float64(s.m) * float64(s.n) * float64(s.k)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
