// HPL.dat workflow: drive the library the way the reference HPL
// distribution is driven — a parameter file whose cross-product of problem
// sizes, block sizes, grids and look-ahead depths is run and reported in
// HPL.out format. Small problems execute the real 2D block-cyclic solver
// (with measured residuals); large ones are priced on the simulated
// Knights Corner cluster.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"phihpl"
)

const dat = `HPLinpack benchmark input file (example)
2              # of problems sizes (N)
480 84000      Ns
1              # of NBs
48             NBs
2              # of process grids (P x Q)
1 2            Ps
1 2            Qs
3              # of lookahead depth
0 1 2          DEPTHs
`

func main() {
	fmt.Println("input HPL.dat:")
	fmt.Print(dat)
	fmt.Println()
	fmt.Println("output report (N<=2000 rows run the real distributed solver):")
	if err := phihpl.RunDat(context.Background(), strings.NewReader(dat), os.Stdout, 2000, phihpl.LookaheadPipelined); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
