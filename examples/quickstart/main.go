// Quickstart: solve a random dense system with the paper's dynamically
// scheduled LU factorization and verify the HPL residual — the minimal
// end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"os"

	"phihpl"
)

func main() {
	const n = 1500

	fmt.Printf("Solving a %dx%d random system with DAG-scheduled LU...\n", n, n)
	ctx := context.Background()
	res, err := phihpl.Run(ctx, phihpl.Spec{N: n, NB: 96, Workers: 8, Seed: 42}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "factorization failed:", err)
		os.Exit(1)
	}

	status := "PASSED"
	if !res.Passed {
		status = "FAILED"
	}
	fmt.Printf("scaled residual = %.6f (threshold %.1f) ...... %s\n",
		res.Residual, phihpl.ResidualThreshold, status)
	fmt.Printf("x[0..4] = %.6f %.6f %.6f %.6f\n", res.X[0], res.X[1], res.X[2], res.X[3])

	// The three schedulers reorder only independent work, so they agree
	// bit for bit.
	seq, _ := phihpl.Run(ctx, phihpl.Spec{N: n, NB: 96, Workers: 1, Seed: 42, Scheduler: phihpl.Sequential}, nil)
	identical := true
	for i := range res.X {
		if res.X[i] != seq.X[i] {
			identical = false
			break
		}
	}
	fmt.Printf("dynamic vs sequential solution bitwise identical: %v\n", identical)
	if !res.Passed || !identical {
		os.Exit(1)
	}
}
