package phihpl

import (
	"context"
	"io"

	"phihpl/internal/hpl"
	"phihpl/internal/hplio"
	"phihpl/internal/perfmodel"
)

// RunDat parses an HPL.dat-style parameter file, runs every combination of
// its parameter lists, and writes an HPL.out-style report to w.
//
// Combinations with N <= realBelow execute the *real* 2D block-cyclic
// distributed solver on P×Q in-process ranks, measuring the actual HPL
// residual; larger combinations are priced on the simulated Knights Corner
// cluster (1 card per node), for which no residual line is printed — the
// same split a user of this repository would want.
func RunDat(r io.Reader, w io.Writer, realBelow int) error {
	return RunDatCtx(context.Background(), r, w, realBelow)
}

// RunDatCtx is RunDat under a context. On cancellation the sweep stops,
// the in-flight and remaining combinations are reported as ABORTED, the
// partial report is still written to w, and ctx.Err() is returned — so a
// timed-out benchmark run always leaves a truthful record of how far it got.
func RunDatCtx(ctx context.Context, r io.Reader, w io.Writer, realBelow int) error {
	return RunDatModeCtx(ctx, r, w, realBelow, LookaheadPipelined)
}

// RunDatModeCtx is RunDatCtx with an explicit look-ahead schedule for the
// real combinations; the mode is echoed in the report header. (The
// virtual-time combinations keep their own per-combination DEPTH column.)
func RunDatModeCtx(ctx context.Context, r io.Reader, w io.Writer, realBelow int, mode LookaheadMode) error {
	params, err := hplio.Parse(r)
	if err != nil {
		return err
	}
	var results []hplio.Result
	for _, c := range params.Combinations() {
		res := hplio.Result{Combination: c, Residual: -1}
		if c.N < 1 || c.NB < 1 || c.P < 1 || c.Q < 1 {
			// Illegal input values: counted in the report footer instead
			// of crashing the sweep, like the reference HPL.
			res.Skipped = true
			results = append(results, res)
			continue
		}
		if ctx.Err() != nil {
			res.Aborted = true
			results = append(results, res)
			continue
		}
		if c.N <= realBelow {
			dr, err := hpl.SolveDistributed2DModeCtx(ctx, c.N, c.NB, c.P, c.Q, 0x5eed, mode, nil)
			if err != nil {
				if ctx.Err() != nil {
					res.Aborted = true
					results = append(results, res)
					continue
				}
				return err
			}
			// Virtual-time estimate is meaningless for the host run; use
			// the model's node projection for the Gflops column anyway so
			// the report stays comparable, but keep the real residual.
			res.Residual = dr.Residual
			res.Passed = dr.Residual < ResidualThreshold
		}
		sim := hpl.Simulate(hpl.SimConfig{
			N: c.N, NB: simNB(c.NB), P: c.P, Q: c.Q, Cards: 1,
			Lookahead: depthToMode(c.Depth),
		})
		res.Seconds = sim.Seconds
		res.GFLOPS = sim.TFLOPS * 1000
		results = append(results, res)
	}
	hplio.SortResults(results)
	hplio.WriteReportHeader(w, "look-ahead (real combinations): "+mode.String(), results)
	return ctx.Err()
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
