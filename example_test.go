package phihpl_test

import (
	"context"
	"fmt"

	"phihpl"
)

// Solve a random system with the paper's dynamically scheduled LU and
// check it against the HPL acceptance threshold.
func ExampleSolve() {
	res, err := phihpl.Solve(400, phihpl.DynamicDAG, 48, 4, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println("passed:", res.Passed)
	// Output: passed: true
}

// Run the distributed Linpack on four in-process nodes, one process row.
func ExampleRun() {
	res, err := phihpl.Run(context.Background(),
		phihpl.Spec{Mode: phihpl.ModeDist2D, N: 300, NB: 32, P: 1, Q: 4, Seed: 7}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("passed:", res.Passed)
	// Output: passed: true
}

// Project the paper's 30K native Linpack run (Figure 6's right edge).
func ExampleNativeLinpackSim() {
	gflops, eff := phihpl.NativeLinpackSim(30000)
	fmt.Printf("%.0f GFLOPS at %.0f%% efficiency\n", gflops, eff*100)
	// Output: 832 GFLOPS at 79% efficiency
}

// Project the paper's single-node hybrid HPL with pipelined look-ahead
// (Table III, fourth row).
func ExampleHybridHPLSim() {
	r := phihpl.HybridHPLSim(phihpl.HybridConfig{
		N: 84000, Cards: 1, Lookahead: phihpl.LookaheadPipelined,
	})
	fmt.Printf("%.2f TFLOPS\n", r.TFLOPS)
	// Output: 1.13 TFLOPS
}

// Table III's problem sizes follow from node memory.
func ExampleMaxProblemSize() {
	fmt.Println(phihpl.MaxProblemSize(1, 64, 1200))
	// Output: 85200
}
