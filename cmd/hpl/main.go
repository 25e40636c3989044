// Command hpl runs Linpack: either a real, residual-checked solve (native
// in-process or distributed over goroutine "nodes"), or a virtual-time
// hybrid HPL projection for a Knights Corner cluster, printing an
// HPL.out-style report.
//
// Usage:
//
//	hpl -real -n 2000 -nb 64 -ranks 4          # real distributed solve on a 1×4 grid
//	hpl -real -n 768 -nb 32 -p 4 -q 4 -lookahead pipelined -trace out.json -gantt
//	                                           # real 2D solve, pipeline Gantt
//	hpl -native -n 1024 -workers 4 -trace out.json -metrics
//	                                           # real DAG solve, Chrome trace + metrics
//	hpl -native -n 1024 -precision mixed       # HPL-MxP: FP32 factor + FP64 refinement
//	hpl -n 960 -nb 64 -p 2 -q 2 -faults 'seed=7;drop=0.02;crash=3@2'
//	                                           # fault-tolerant solve under injection
//	hpl -n 84000 -cards 1 -mode pipelined      # hybrid projection
//	hpl -n 825600 -p 10 -q 10 -cards 1 -mode pipelined
//
// Observability: -trace FILE writes Chrome trace-event JSON (open in
// chrome://tracing or ui.perfetto.dev) of whatever real work ran — the
// dynamic DAG scheduler's per-worker PanelFact/Update spans for -native,
// per-rank super-step spans for fault-tolerant runs, the virtual-time
// region timeline for projections. -metrics prints a registry snapshot
// (packed-DGEMM bytes, pool drops, transport resends/timeouts, FT
// rollbacks) after the run; -gantt additionally renders the ASCII chart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phihpl"
	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/hpl"
	"phihpl/internal/hplio"
	"phihpl/internal/lu"
	"phihpl/internal/metrics"
	"phihpl/internal/pool"
	"phihpl/internal/trace"
)

// Exit codes, documented in README.md: the process outcome is machine
// readable even when the report is partial.
const (
	exitPass     = 0 // solve completed and passed the residual check
	exitFailed   = 1 // solve completed but failed the residual check (or other error)
	exitAborted  = 2 // cancelled by -timeout, SIGINT or SIGTERM
	exitRankFail = 3 // rank crash, contained worker panic, or unrecoverable fault

	// exitUnsupported shares code 3: the run never started because the
	// flag combination names a path the solver stack does not implement
	// (today: -precision mixed with -faults/-ft, -dat, or the hybrid
	// projection). Distinct from exitFailed so
	// harnesses can tell "your request is unsupported" from "your matrix
	// failed".
	exitUnsupported = 3
)

// mixedUnsupportedMsg returns a non-empty diagnostic when -precision
// mixed is combined with a path that would silently run FP64. The HPL-MxP
// ladder covers the -native shared-memory solve and the real grid driver
// (-real on any P×Q grid, -ranks R being the 1×R one); the remaining
// paths refuse loudly, each naming its own reason and the nearest
// supported invocation.
func mixedUnsupportedMsg(native, real, ft, dat bool, precision phihpl.PrecisionMode) string {
	if precision != phihpl.PrecisionMixed || native {
		return ""
	}
	switch {
	case ft:
		return "-precision mixed cannot be combined with -faults/-ft: the fault-tolerant solver's ABFT " +
			"checksum columns and checkpoints protect FP64 state only, and a mixed FP64 fallback re-run " +
			"would be indistinguishable from a rollback — run the FT solver in FP64, or drop -faults/-ft " +
			"to use the mixed 2D driver"
	case dat:
		return "-precision mixed is not supported with -dat: HPL.dat sweeps run the FP64 drivers — " +
			"use -real -p P -q Q -precision mixed for a mixed 2D solve"
	case real:
		return "" // the real grid driver carries the full mixed ladder
	default:
		return "-precision mixed has no meaning for the hybrid projection (virtual time prices FP64 " +
			"GEMMs); use -native or -real -p P -q Q"
	}
}

// realGrid returns the process grid of a -real solve: -p/-q when they name
// more than one process, otherwise the single process row of -ranks.
func realGrid(p, q, ranks int) (int, int) {
	if p*q > 1 {
		return p, q
	}
	return 1, ranks
}

// printRefine reports the mixed-precision phase of a finished solve.
func printRefine(rr *phihpl.RefineReport) {
	if rr == nil {
		return
	}
	if rr.FellBack {
		fmt.Printf("precision=mixed refine-iters=%d fallback=%s (solved in FP64)\n",
			rr.Iterations, rr.Reason)
	} else {
		fmt.Printf("precision=mixed refine-iters=%d fallback=none\n", rr.Iterations)
	}
}

// exitCode classifies a solve error into the documented exit codes.
func exitCode(err error) int {
	var pe *phihpl.PanicError
	var rpe *cluster.RankPanicError
	var fe *phihpl.FaultError
	switch {
	case err == nil:
		return exitPass
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return exitAborted
	case errors.Is(err, phihpl.ErrUnsupported):
		return exitUnsupported
	case errors.As(err, &pe), errors.As(err, &rpe), errors.As(err, &fe),
		errors.Is(err, cluster.ErrRankFailed):
		return exitRankFail
	default:
		return exitFailed
	}
}

// writeAbortedReport emits the partial HPL.out-style record of a cancelled
// run: the combination that was in flight, marked ABORTED.
func writeAbortedReport(n, nb, p, q int, elapsed float64) {
	hplio.WriteReport(os.Stdout, []hplio.Result{{
		Combination: hplio.Combination{N: n, NB: nb, P: p, Q: q, Depth: 1},
		Seconds:     elapsed,
		Residual:    -1,
		Aborted:     true,
	}})
}

func main() {
	var (
		dat     = flag.String("dat", "", "run every combination in an HPL.dat-style file (use '-' for a built-in example)")
		real    = flag.Bool("real", false, "run a real, residual-checked solve instead of a projection")
		native  = flag.Bool("native", false, "run a real single-process solve with the dynamic DAG scheduler")
		n       = flag.Int("n", 84000, "problem size")
		nb      = flag.Int("nb", 0, "block size (0 = default: 64 real, 1200 hybrid)")
		p       = flag.Int("p", 1, "process rows")
		q       = flag.Int("q", 1, "process columns")
		ranks   = flag.Int("ranks", 4, "process columns of a single-row grid for -real when -p/-q are not given")
		workers = flag.Int("workers", 4, "thread groups for -native")
		cards   = flag.Int("cards", 1, "coprocessor cards per node (0 = CPU only)")
		mem     = flag.Int("mem", 64, "host memory per node (GiB)")
		mode    = flag.String("mode", "pipelined", "look-ahead for the hybrid projection: none | basic | pipelined")
		lookStr = flag.String("lookahead", "pipelined", "stage schedule for real grid solves (-real, -dat, -ft): none | basic | pipelined")
		seed    = flag.Uint64("seed", 1, "matrix seed for -real/-native")
		precStr = flag.String("precision", "fp64", "arithmetic for -native: fp64 | mixed (FP32 factorization + FP64 iterative refinement, same residual verdict)")

		traceOut = flag.String("trace", "", "write Chrome trace-event JSON of the run to this file")
		metricsF = flag.Bool("metrics", false, "print a metrics snapshot after the run")
		gantt    = flag.Bool("gantt", false, "with -trace: also render the ASCII Gantt chart")

		faults   = flag.String("faults", "", "fault-injection plan for a fault-tolerant real solve on the P×Q grid, e.g. 'seed=7;drop=0.02;crash=3@2;scrub=1@4' ('' with -ft runs the FT solver fault-free)")
		ft       = flag.Bool("ft", false, "run the fault-tolerant solver even with no -faults plan")
		ftTime   = flag.Duration("ft-timeout", 0, "per-operation timeout before a rank is declared failed (0 = default)")
		ckEvery  = flag.Int("ckpt-every", 0, "checkpoint + ABFT verification period in panel stages (0 = default)")
		restarts = flag.Int("max-restarts", 0, "rollback attempts before giving up (0 = default)")

		timeout = flag.Duration("timeout", 0, "wall-clock budget for the whole run; on expiry (or SIGINT/SIGTERM) the solve is cancelled, a partial report marked ABORTED is written, and the exit code is 2 (0 = no limit)")
	)
	flag.Parse()

	// One context governs the run: -timeout arms a deadline, SIGINT/SIGTERM
	// cancel it, and every real solver observes it at its scheduling
	// boundaries — cancellation unwinds workers and ranks cleanly instead
	// of killing the process mid-write.
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	lookahead, err := phihpl.ParseLookaheadMode(*lookStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(exitFailed)
	}
	precision, err := phihpl.ParsePrecisionMode(*precStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(exitFailed)
	}
	// Refuse, loudly and with a distinct exit code, rather than silently
	// falling back to FP64 on paths the mixed ladder does not cover yet.
	if msg := mixedUnsupportedMsg(*native, *real, *faults != "" || *ft, *dat != "", precision); msg != "" {
		fmt.Fprintln(os.Stderr, "error:", msg)
		os.Exit(exitUnsupported)
	}

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = new(trace.Recorder)
	}
	var reg *metrics.Registry
	if *metricsF {
		reg = metrics.NewRegistry()
	}
	if reg != nil {
		// Metrics flow from every layer; spans stay with the solver that
		// owns the timeline so the trace has one coherent worker axis.
		pool.SetObservability(nil, reg)
		blas.SetObservability(nil, reg)
		cluster.SetMetrics(reg)
		hpl.SetMetrics(reg)
		lu.SetMetrics(reg)
	}

	// The real solves share one Run call; -dat and the projection write
	// reports of their own.
	bs := *nb
	if bs == 0 {
		bs = 64
	}
	var sp phihpl.Spec
	switch {
	case *native:
		sp = phihpl.Spec{Mode: phihpl.ModeNative, N: *n, NB: bs, Workers: *workers, Seed: *seed, Precision: precision}
	case *faults != "" || *ft:
		sp = phihpl.Spec{Mode: phihpl.ModeFT, N: *n, NB: bs, P: *p, Q: *q, Seed: *seed, Lookahead: lookahead,
			FT: phihpl.FTConfig{Timeout: *ftTime, CheckpointEvery: *ckEvery, MaxRestarts: *restarts}}
		if *faults != "" {
			if sp.FT.Plan, err = phihpl.ParseFaultPlan(*faults); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(exitFailed)
			}
		}
	case *dat != "":
		var r io.Reader
		if *dat == "-" {
			r = strings.NewReader(hplio.Example())
		} else {
			f, err := os.Open(*dat)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			defer f.Close()
			r = f
		}
		// Combinations up to N=2000 run the real distributed solver. On
		// cancellation RunDat has already written the partial report with
		// the unfinished combinations marked ABORTED.
		if err := phihpl.RunDat(ctx, r, os.Stdout, 2000, lookahead); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			finishObservability(rec, *traceOut, *gantt, reg)
			os.Exit(exitCode(err))
		}
		finishObservability(rec, *traceOut, *gantt, reg)
		return
	case *real:
		// One driver for every shape: the selected look-ahead schedule and
		// precision, with per-stage pipeline spans on rec.
		gp, gq := realGrid(*p, *q, *ranks)
		sp = phihpl.Spec{Mode: phihpl.ModeDist2D, N: *n, NB: bs, P: gp, Q: gq, Seed: *seed,
			Precision: precision, Lookahead: lookahead}
	default:
		var la phihpl.HybridConfig
		la.N, la.NB, la.P, la.Q = *n, *nb, *p, *q
		la.Cards, la.HostMemGiB = *cards, *mem
		la.Trace = rec
		if la.Lookahead, err = phihpl.ParseLookaheadMode(*mode); err != nil {
			fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
			os.Exit(exitFailed) // 2 is reserved for aborted runs
		}
		r := phihpl.HybridHPLSim(la)
		fmt.Printf("T/V                N    NB     P     Q               Time                 Gflops\n")
		fmt.Printf("--------------------------------------------------------------------------------\n")
		fmt.Printf("WR%-9s %8d %5d %5d %5d %18.2f %22.3e\n",
			*mode, la.N, max(la.NB, 1200), la.P, la.Q, r.Seconds, r.TFLOPS*1000)
		fmt.Printf("efficiency: %.1f%% of node peak, coprocessor idle: %.1f%%\n",
			r.Eff*100, r.CardIdleFrac*100)
		finishObservability(rec, *traceOut, *gantt, reg)
		return
	}
	code := solve(ctx, sp, *faults, rec, reg)
	finishObservability(rec, *traceOut, *gantt, reg)
	os.Exit(code)
}

// finishObservability writes the Chrome trace file (and optional ASCII
// Gantt) and prints the metrics snapshot, after whatever run happened.
func finishObservability(rec *trace.Recorder, tracePath string, gantt bool, reg *metrics.Registry) {
	if rec != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
			len(rec.Spans()), tracePath)
		if gantt {
			fmt.Print(rec.Gantt(100))
		}
	}
	if reg != nil {
		fmt.Println("metrics:")
		reg.WriteText(os.Stdout)
	}
}

// solve runs sp and reports it: the result line, the mixed-precision and
// recovery reports and the HPL residual verdict. An unrecoverable
// fault-tolerant run prints the structured fault report instead of
// hanging or printing a bogus residual; a cancelled run writes the partial
// ABORTED report. It returns the exit code.
func solve(ctx context.Context, sp phihpl.Spec, faults string, rec *trace.Recorder, reg *metrics.Registry) int {
	start := time.Now()
	res, err := phihpl.Run(ctx, sp, rec)
	if err != nil {
		var fe *phihpl.FaultError
		if errors.As(err, &fe) {
			fmt.Fprintf(os.Stderr, "UNRECOVERABLE after %d restart(s), reached stage %d: %v\n",
				fe.Restarts, fe.Iter, fe.Err)
			for _, st := range fe.Profile {
				fmt.Fprintf(os.Stderr, "  stage %-4d %.6fs\n", st.Stage, st.Seconds)
			}
		} else {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		code := exitCode(err)
		if code == exitAborted {
			writeAbortedReport(sp.N, sp.NB, max(sp.P, 1), max(sp.Q, 1), time.Since(start).Seconds())
		}
		return code
	}
	if reg != nil {
		reg.Gauge("hpl.gflops").Set(phihpl.LUFlops(sp.N) / res.Seconds / 1e9)
		reg.Gauge("hpl.seconds").Set(res.Seconds)
	}
	status := "PASSED"
	if !res.Passed {
		status = "FAILED"
	}
	fmt.Println(resultLine(sp, faults, res))
	printRefine(res.Refine)
	fmt.Printf("||Ax-b||_oo/(eps*(||A||_oo*||x||_oo+||b||_oo)*N) = %10.7f ...... %s\n",
		res.Residual, status)
	if ftst := res.FT; ftst != nil {
		fmt.Printf("recovery: restarts=%d checkpoints=%d reconstructions=%d chk-rebuilds=%d resends=%d checksum-rejects=%d\n",
			ftst.Restarts, ftst.Checkpoints, ftst.Reconstructions, ftst.ChecksumRebuilds,
			ftst.Resends, ftst.ChecksumRejects)
		fmt.Printf("injected:  drops=%d dups=%d delays=%d corrupts=%d crashes=%d stalls=%d scrubs=%d\n",
			ftst.Faults.Drops, ftst.Faults.Dups, ftst.Faults.Delays, ftst.Faults.Corrupts,
			ftst.Faults.Crashes, ftst.Faults.Stalls, ftst.Faults.Scrubs)
	}
	if !res.Passed {
		return exitFailed
	}
	return exitPass
}

// resultLine is a solve's one-line summary. Its rate is HPL's: the flop
// count over the timed phase res.Seconds, which leaves out generating A
// and checking the residual.
func resultLine(sp phihpl.Spec, faults string, res phihpl.SolveResult) string {
	var what string
	switch sp.Mode {
	case phihpl.ModeNative:
		what = fmt.Sprintf("workers=%d sched=dynamic precision=%s", sp.Workers, sp.Precision)
	case phihpl.ModeFT:
		what = fmt.Sprintf("grid=%dx%d faults=%q", sp.P, sp.Q, faults)
	default:
		what = fmt.Sprintf("grid=%dx%d lookahead=%s", sp.P, sp.Q, sp.Lookahead)
	}
	return fmt.Sprintf("N=%d NB=%d %s %.3fs %.2f GFLOPS", sp.N, sp.NB, what, res.Seconds,
		phihpl.LUFlops(sp.N)/res.Seconds/1e9)
}
