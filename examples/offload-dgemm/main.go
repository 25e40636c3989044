// Offload DGEMM: run the real work-stealing offload engine (host and
// "card" goroutines meeting in the middle of the tile grid), check the
// result against plain DGEMM to round-off and against the packed GEMM on
// the same packed operands bit for bit; then project Figure 11's offload
// performance for one and two coprocessors on the machine model.
package main

import (
	"fmt"
	"os"

	"phihpl"
	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/offload"
	"phihpl/internal/pack"
)

func main() {
	// Real computation with work stealing.
	m, k, n := 600, 200, 480
	a := matrix.RandomGeneral(m, k, 7)
	b := matrix.RandomGeneral(k, n, 8)
	c := matrix.NewDense(m, n)
	stats := offload.Compute(a, b, c, offload.RealConfig{
		Mt: 96, Nt: 96, CardWorkers: 2, HostWorkers: 2,
	})
	want := matrix.NewDense(m, n)
	blas.Dgemm(false, false, 1, a, b, 0, want)
	diff := matrix.MaxDiff(c, want)
	fmt.Printf("real offload DGEMM %dx%dx%d: card %d tiles, host %d tiles, maxdiff %.2g\n",
		m, n, k, stats.CardTiles, stats.HostTiles, diff)
	if diff > 1e-10 {
		fmt.Println("MISMATCH")
		os.Exit(1)
	}
	packed := matrix.NewDense(m, n)
	pack.Gemm(pack.PackA(a, 0), pack.PackB(b), packed, 1)
	same := matrix.Equal(c, packed)
	fmt.Printf("offload vs packed GEMM on the same packed operands bitwise identical: %v\n", same)
	if !same {
		os.Exit(1)
	}

	// Figure 11 projection.
	fmt.Println("\noffload DGEMM projection (trailing updates, Kt=1200):")
	for _, size := range []int{20000, 40000, 82000} {
		g1, e1 := phihpl.OffloadDGEMMSim(size, size, 1)
		g2, e2 := phihpl.OffloadDGEMMSim(size, size, 2)
		fmt.Printf("  M=N=%-6d 1 card: %7.1f GFLOPS (%.1f%%)   2 cards: %7.1f GFLOPS (%.1f%%)\n",
			size, g1, e1*100, g2, e2*100)
	}
}
