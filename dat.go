package phihpl

import (
	"context"
	"fmt"
	"io"

	"phihpl/internal/hpl"
	"phihpl/internal/hplio"
	"phihpl/internal/perfmodel"
)

// RunDat parses an HPL.dat-style parameter file, runs every combination of
// its parameter lists, and writes an HPL.out report to w, one row per
// combination in the order HPL runs them: grids outermost, in file order,
// then N, NB and DEPTH.
//
// Each combination with N <= realBelow executes the *real* 2D block-cyclic
// solver on P×Q in-process ranks under the schedule its DEPTH names
// (depthToMode), and its row reports what was measured: the timed phase,
// HPL's rate over it and the residual verdict. Larger combinations are
// priced on the simulated Knights Corner cluster (1 card per node, the
// same DEPTH) and reported as projected rows, which carry no residual.
// On cancellation the sweep stops, the in-flight and remaining
// combinations are reported as ABORTED, the partial report is still
// written to w, and ctx.Err() is returned — so a timed-out benchmark run
// always leaves a truthful record of how far it got.
func RunDat(ctx context.Context, r io.Reader, w io.Writer, realBelow int) error {
	params, err := hplio.Parse(r)
	if err != nil {
		return err
	}
	var results []hplio.Result
	for _, c := range params.Combinations() {
		res := hplio.Result{Combination: c}
		switch {
		case c.N < 1 || c.NB < 1 || c.P < 1 || c.Q < 1:
			// Illegal input values: counted in the report footer instead
			// of crashing the sweep, like the reference HPL.
			res.Skipped = true
		case ctx.Err() != nil:
			res.Aborted = true
		case c.N <= realBelow:
			sp := Spec{Mode: ModeDist2D, N: c.N, NB: c.NB, P: c.P, Q: c.Q, Seed: 0x5eed, Lookahead: depthToMode(c.Depth)}
			dr, err := Run(ctx, sp, nil)
			switch {
			case err == nil:
				res = ReportRow(sp, dr)
			case ctx.Err() != nil:
				res.Aborted = true
			default:
				return err
			}
		default:
			sim := hpl.Simulate(hpl.SimConfig{
				N: c.N, NB: simNB(c.NB), P: c.P, Q: c.Q, Cards: 1,
				Lookahead: depthToMode(c.Depth),
			})
			res.NB, res.Seconds, res.GFLOPS, res.Projected = sim.Config.NB, sim.Seconds, sim.TFLOPS*1000, true
		}
		results = append(results, res)
	}
	hplio.Write(w, fmt.Sprintf("HPL.dat sweep: rows with N <= %d measured on in-process P x Q ranks, "+
		"larger N projected on the Knights Corner model", realBelow), results)
	return ctx.Err()
}

// ReportRow is a measured solve's row in an HPL.out report. Its rate is
// HPL's: the flop count over the timed phase res.Seconds, which leaves out
// generating A and checking the residual. Its DEPTH is the schedule sp
// ran: a grid's look-ahead, or the native Scheduler's (Sequential 0,
// StaticLookahead 1, DynamicDAG hplio.DepthDynamic).
func ReportRow(sp Spec, res SolveResult) hplio.Result {
	depth := sp.Lookahead.Depth()
	if sp.Mode == "" || sp.Mode == ModeNative {
		depth = [...]int{DynamicDAG: hplio.DepthDynamic, Sequential: 0, StaticLookahead: 1}[sp.Scheduler]
	}
	return hplio.Result{
		Combination: hplio.Combination{N: sp.N, NB: sp.NB, P: max(sp.P, 1), Q: max(sp.Q, 1), Depth: depth},
		Seconds:     res.Seconds, GFLOPS: LUFlops(sp.N) / res.Seconds / 1e9,
		Residual: res.Residual, Passed: res.Passed,
	}
}

// simNB keeps the virtual-time model in its calibrated blocking regime:
// the offload depth must stay above the PCIe bound, so tiny NBs from a
// real-solve-oriented dat file are promoted to the paper's Kt.
func simNB(nb int) int {
	if nb < 600 {
		return 1200
	}
	return nb
}

// depthToMode maps HPL.dat look-ahead depths onto the paper's schemes.
func depthToMode(d int) hpl.LookaheadMode {
	switch d {
	case 0:
		return hpl.LookaheadNone
	case 2:
		return hpl.LookaheadPipelined
	default:
		return hpl.LookaheadBasic
	}
}

// LUFlops re-exports the standard Linpack flop count 2/3·n³ + 2·n².
func LUFlops(n int) float64 { return perfmodel.LUFlops(n) }
