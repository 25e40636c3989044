// Hybrid cluster: run the real distributed Linpack on in-process "nodes"
// (block-cyclic panels, per-stage broadcasts over the message fabric) and
// verify its residual; then project the paper's 100-node hybrid cluster
// with each look-ahead scheme (Table III's headline rows).
package main

import (
	"fmt"
	"os"

	"phihpl"
)

func main() {
	// Real distributed solve over 6 goroutine nodes.
	const n, nb, ranks = 1200, 48, 6
	fmt.Printf("distributed Linpack: N=%d, NB=%d over %d nodes...\n", n, nb, ranks)
	res, err := phihpl.SolveDistributed(n, nb, ranks, 2026)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	status := "PASSED"
	if !res.Passed {
		status = "FAILED"
	}
	fmt.Printf("scaled residual = %.6f ...... %s\n\n", res.Residual, status)

	// Project the paper's 100-node cluster.
	nMax := phihpl.MaxProblemSize(100, 64, 1200)
	fmt.Printf("projected 100-node Knights Corner cluster (N=%d fits 64 GiB/node):\n", nMax)
	for _, mode := range []struct {
		name string
		la   phihpl.HybridConfig
	}{
		{"no look-ahead", phihpl.HybridConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: phihpl.LookaheadNone}},
		{"basic look-ahead", phihpl.HybridConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: phihpl.LookaheadBasic}},
		{"pipelined look-ahead", phihpl.HybridConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: phihpl.LookaheadPipelined}},
	} {
		r := phihpl.HybridHPLSim(mode.la)
		fmt.Printf("  %-22s %7.1f TFLOPS  (%.1f%% efficiency, card idle %.1f%%)\n",
			mode.name, r.TFLOPS, r.Eff*100, r.CardIdleFrac*100)
	}
	if !res.Passed {
		os.Exit(1)
	}
}
