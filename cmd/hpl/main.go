// Command hpl runs Linpack: either a real, residual-checked solve (native
// in-process or distributed over goroutine "nodes"), or a virtual-time
// hybrid HPL projection for a Knights Corner cluster. Every mode writes an
// HPL.out report (internal/hplio): a measured row's T/V code starts with W,
// a projected row's with KNC.
//
// Usage:
//
//	hpl -real -n 2000 -nb 64 -p 1 -q 4         # real distributed solve on a 1×4 grid
//	hpl -real -n 768 -nb 32 -p 4 -q 4 -lookahead pipelined -trace out.json -gantt
//	                                           # real 2D solve, pipeline Gantt
//	hpl -native -n 1024 -workers 4 -trace out.json -metrics
//	                                           # real DAG solve, Chrome trace + metrics
//	hpl -native -n 1024 -precision mixed       # HPL-MxP: FP32 factor + FP64 refinement
//	hpl -n 960 -nb 64 -p 2 -q 2 -faults 'seed=7;drop=0.02;crash=3@2'
//	                                           # fault-tolerant solve under injection
//	hpl -n 84000 -cards 1 -lookahead pipelined # hybrid projection
//	hpl -n 825600 -p 10 -q 10 -cards 1 -lookahead pipelined
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
	// (-precision mixed with -faults/-ft, -dat, or the hybrid projection).
	// Distinct from exitFailed so harnesses can tell "your request is
	// unsupported" from "your matrix failed".
	exitUnsupported = 3
)

// mixedUnsupportedMsg is the diagnostic of -precision mixed on the paths
// that never build a Spec: the -dat sweep, or the hybrid projection. A
// solve's Spec refuses what it cannot run itself (Spec.Validate wraps
// ErrUnsupported, which exitCode maps to exitUnsupported).
func mixedUnsupportedMsg(dat bool) string {
	if dat {
		return "-precision mixed is not supported with -dat: HPL.dat sweeps run the FP64 drivers — " +
			"use -real -p P -q Q -precision mixed for a mixed 2D solve"
	}
	return "-precision mixed has no meaning for the hybrid projection (virtual time prices FP64 " +
		"GEMMs); use -native or -real -p P -q Q"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command on explicit arguments and streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dat     = fs.String("dat", "", "run every combination in an HPL.dat-style file (use '-' for a built-in example); each row runs the schedule its DEPTH names")
		real    = fs.Bool("real", false, "run a real, residual-checked solve on the P×Q grid instead of a projection")
		native  = fs.Bool("native", false, "run a real single-process solve with the dynamic DAG scheduler")
		n       = fs.Int("n", 84000, "problem size")
		nb      = fs.Int("nb", 0, "block size (0 = default: 64 real, 1200 hybrid)")
		p       = fs.Int("p", 1, "process rows")
		q       = fs.Int("q", 1, "process columns")
		workers = fs.Int("workers", 4, "thread groups for -native")
		cards   = fs.Int("cards", 1, "coprocessor cards per node (0 = CPU only)")
		mem     = fs.Int("mem", 64, "host memory per node (GiB)")
		lookStr = fs.String("lookahead", "pipelined", "stage schedule of a grid solve (-real, -ft) and of the hybrid projection: none | basic | pipelined")
		seed    = fs.Uint64("seed", 1, "matrix seed for -real/-native")
		precStr = fs.String("precision", "fp64", "arithmetic for -native and -real: fp64 | mixed (FP32 factorization + FP64 iterative refinement, same residual verdict)")

		traceOut = fs.String("trace", "", "write Chrome trace-event JSON of the run to this file")
		metricsF = fs.Bool("metrics", false, "print a metrics snapshot after the run")
		gantt    = fs.Bool("gantt", false, "with -trace: also render the ASCII Gantt chart")

		faults   = fs.String("faults", "", "fault-injection plan for a fault-tolerant real solve on the P×Q grid, e.g. 'seed=7;drop=0.02;crash=3@2;scrub=1@4' ('' with -ft runs the FT solver fault-free)")
		ftFlag   = fs.Bool("ft", false, "run the fault-tolerant solver even with no -faults plan")
		ftTime   = fs.Duration("ft-timeout", 0, "per-operation timeout before a rank is declared failed (0 = default)")
		ckEvery  = fs.Int("ckpt-every", 0, "checkpoint + ABFT verification period in panel stages (0 = default)")
		restarts = fs.Int("max-restarts", 0, "rollback attempts before giving up (0 = default)")

		timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole run; on expiry (or SIGINT/SIGTERM) the solve is cancelled, a partial report marked ABORTED is written, and the exit code is 2 (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitPass
		}
		return exitFailed
	}

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
		fmt.Fprintln(stderr, "error:", err)
		return exitFailed
	}
	precision, err := phihpl.ParsePrecisionMode(*precStr)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return exitFailed
	}

	o := observer{path: *traceOut, gantt: *gantt}
	if *traceOut != "" {
		o.rec = new(trace.Recorder)
	}
	if *metricsF {
		o.reg = metrics.NewRegistry()
		// Metrics flow from every layer; spans stay with the solver that
		// owns the timeline so the trace has one coherent worker axis.
		pool.SetObservability(nil, o.reg)
		blas.SetObservability(nil, o.reg)
		cluster.SetMetrics(o.reg)
		hpl.SetMetrics(o.reg)
		lu.SetMetrics(o.reg)
	}

	// The real solves share one Run call; -dat and the projection report
	// rows of their own. Every mode writes one HPL.out report.
	bs := *nb
	if bs == 0 {
		bs = 64
	}
	ft := *faults != "" || *ftFlag
	var sp phihpl.Spec
	var header string
	switch {
	case *native:
		sp = phihpl.Spec{Mode: phihpl.ModeNative, N: *n, NB: bs, Workers: *workers, Seed: *seed, Precision: precision}
		header = fmt.Sprintf("native: sched=dynamic precision=%s workers=%d", precision, *workers)
	case ft:
		sp = phihpl.Spec{Mode: phihpl.ModeFT, N: *n, NB: bs, P: *p, Q: *q, Seed: *seed, Lookahead: lookahead,
			Precision: precision, FT: phihpl.FTConfig{Timeout: *ftTime, CheckpointEvery: *ckEvery, MaxRestarts: *restarts}}
		header = fmt.Sprintf("fault-tolerant grid: %dx%d faults=%q", *p, *q, *faults)
		if *faults != "" {
			if sp.FT.Plan, err = phihpl.ParseFaultPlan(*faults); err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return exitFailed
			}
		}
	case precision == phihpl.PrecisionMixed && (*dat != "" || !*real):
		// Refuse, loudly and with a distinct exit code, rather than
		// silently falling back to FP64.
		fmt.Fprintln(stderr, "error:", mixedUnsupportedMsg(*dat != ""))
		return exitUnsupported
	case *dat != "":
		return o.finish(runDat(ctx, *dat, stdout, stderr), stdout, stderr)
	case *real:
		sp = phihpl.Spec{Mode: phihpl.ModeDist2D, N: *n, NB: bs, P: *p, Q: *q, Seed: *seed,
			Precision: precision, Lookahead: lookahead}
		header = fmt.Sprintf("grid: %dx%d precision=%s", *p, *q, precision)
	default:
		r := phihpl.HybridHPLSim(phihpl.HybridConfig{N: *n, NB: *nb, P: *p, Q: *q, Cards: *cards,
			HostMemGiB: *mem, Lookahead: lookahead, Trace: o.rec})
		c := r.Config
		hplio.Write(stdout, fmt.Sprintf("projection: Knights Corner model, cards=%d mem=%dGiB", c.Cards, c.HostMemGiB),
			[]hplio.Result{{Combination: hplio.Combination{N: c.N, NB: c.NB, P: c.P, Q: c.Q, Depth: lookahead.Depth()},
				Seconds: r.Seconds, GFLOPS: r.TFLOPS * 1000, Projected: true}})
		fmt.Fprintf(stdout, "efficiency: %.1f%% of node peak, coprocessor idle: %.1f%%\n",
			r.Eff*100, r.CardIdleFrac*100)
		return o.finish(exitPass, stdout, stderr)
	}
	return o.finish(solve(ctx, sp, header, o, stdout, stderr), stdout, stderr)
}

// runDat runs the HPL.dat sweep of path ("-" for the built-in example).
// Combinations up to N=2000 run the real distributed solver. On
// cancellation RunDat has already written the partial report with the
// unfinished combinations marked ABORTED.
func runDat(ctx context.Context, path string, stdout, stderr io.Writer) int {
	var r io.Reader = strings.NewReader(hplio.Example())
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return exitFailed
		}
		defer f.Close()
		r = f
	}
	if err := phihpl.RunDat(ctx, r, stdout, 2000); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return exitCode(err)
	}
	return exitPass
}

// observer holds the run's optional trace recorder and metrics registry.
type observer struct {
	rec   *trace.Recorder
	path  string
	gantt bool
	reg   *metrics.Registry
}

// finish writes the Chrome trace file (and optional ASCII Gantt) and
// prints the metrics snapshot, after whatever run happened. It returns
// code, or exitFailed when the trace file cannot be written.
func (o observer) finish(code int, stdout, stderr io.Writer) int {
	if o.rec != nil {
		f, err := os.Create(o.path)
		if err == nil {
			err = o.rec.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return exitFailed
		}
		fmt.Fprintf(stdout, "trace: %d spans -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
			len(o.rec.Spans()), o.path)
		if o.gantt {
			fmt.Fprint(stdout, o.rec.Gantt(100))
		}
	}
	if o.reg != nil {
		fmt.Fprintln(stdout, "metrics:")
		o.reg.WriteText(stdout)
	}
	return code
}

// solve runs sp and writes its one-row report under header, then the
// mixed-precision and recovery lines. An unrecoverable fault-tolerant run
// prints the structured fault report instead of hanging or printing a
// bogus residual; a cancelled run writes its row marked ABORTED. It
// returns the exit code.
func solve(ctx context.Context, sp phihpl.Spec, header string, o observer, stdout, stderr io.Writer) int {
	start := time.Now()
	res, err := phihpl.Run(ctx, sp, o.rec)
	if err != nil {
		var fe *phihpl.FaultError
		if errors.As(err, &fe) {
			fmt.Fprintf(stderr, "UNRECOVERABLE after %d restart(s), reached stage %d: %v\n",
				fe.Restarts, fe.Iter, fe.Err)
			for _, st := range fe.Profile {
				fmt.Fprintf(stderr, "  stage %-4d %.6fs\n", st.Stage, st.Seconds)
			}
		} else {
			fmt.Fprintln(stderr, "error:", err)
		}
		code := exitCode(err)
		if code == exitAborted {
			row := phihpl.ReportRow(sp, phihpl.SolveResult{Seconds: time.Since(start).Seconds()})
			row.Aborted = true
			hplio.Write(stdout, header, []hplio.Result{row})
		}
		return code
	}
	row := phihpl.ReportRow(sp, res)
	if o.reg != nil {
		o.reg.Gauge("hpl.gflops").Set(row.GFLOPS)
		o.reg.Gauge("hpl.seconds").Set(res.Seconds)
	}
	hplio.Write(stdout, header, []hplio.Result{row})
	if rr := res.Refine; rr != nil {
		fallback := "none"
		if rr.FellBack {
			fallback = rr.Reason.String() + " (solved in FP64)"
		}
		fmt.Fprintf(stdout, "precision=mixed refine-iters=%d fallback=%s\n", rr.Iterations, fallback)
	}
	if ftst := res.FT; ftst != nil {
		fmt.Fprintf(stdout, "recovery: restarts=%d checkpoints=%d reconstructions=%d chk-rebuilds=%d resends=%d checksum-rejects=%d\n",
			ftst.Restarts, ftst.Checkpoints, ftst.Reconstructions, ftst.ChecksumRebuilds,
			ftst.Resends, ftst.ChecksumRejects)
		fmt.Fprintf(stdout, "injected:  drops=%d dups=%d delays=%d corrupts=%d crashes=%d stalls=%d scrubs=%d\n",
			ftst.Faults.Drops, ftst.Faults.Dups, ftst.Faults.Delays, ftst.Faults.Corrupts,
			ftst.Faults.Crashes, ftst.Faults.Stalls, ftst.Faults.Scrubs)
	}
	if !res.Passed {
		return exitFailed
	}
	return exitPass
}
