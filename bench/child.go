package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"phihpl"
	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
	"phihpl/internal/offload"
	"phihpl/internal/pool"
	"phihpl/internal/trace"
)

// childEnv carries a childConfig, as JSON, to a child process. Its presence
// is what makes the program (or the test binary) act as a child.
const childEnv = "BENCH_CHILD"

// childConfig is what the parent hands one child process.
type childConfig struct {
	Workload string
	Seed     uint64
	Child    int // index among the run's children; separates their matrix seeds
	Size     sizing
	Window   float64 // seconds of the timed window when Size.Ops == 0
	Spawned  int64   // the parent's clock just before it started the child, unix ns
	Trace    bool
	Out      string
}

// childResult is what a child prints, as one JSON line, when it is done.
type childResult struct {
	SetupS   float64   // spawn to the start of the first timed operation
	WindowS  float64   // wall seconds of the timed window
	Samples  []float64 // seconds of each timed operation
	Flops    float64   // HPL flops of the verified results delivered in the window
	PeakRSS  float64   // VmHWM in MiB when the window ended
	Attempts int
	Failed   int
	Reasons  []string           // why the first few failed
	Layer    map[string]float64 // per-layer metrics, traced children only
}

// note counts one operation on a system of order n; reason is empty when its
// result verified.
func (r *childResult) note(n int, reason string) {
	r.Attempts++
	if reason == "" {
		r.Flops += hplFlops(n)
		return
	}
	r.mismatch(reason)
}

// mismatch counts a failed check that is not a timed operation of its own.
func (r *childResult) mismatch(reason string) {
	r.Failed++
	if len(r.Reasons) < 5 {
		r.Reasons = append(r.Reasons, reason)
	}
}

// childMain runs the workload named in the environment and prints its result.
func childMain() {
	var cfg childConfig
	if err := json.Unmarshal([]byte(os.Getenv(childEnv)), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad config:", err)
		os.Exit(2)
	}
	var res childResult
	var err error
	switch {
	case cfg.Workload == wlServer && cfg.Trace:
		res, err = traceServer(cfg)
	case cfg.Workload == wlServer:
		res, err = runServer(cfg)
	case cfg.Trace:
		res, err = traceLibrary(cfg)
	default:
		res, err = runLibrary(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
}

// library is one of the three workloads that call the solver facade.
type library struct {
	mixedNB int // block size when the workload solves in mixed precision, else 0
	// solve is the timed operation. With a nil recorder each call runs
	// exactly what the plain facade function of the workload table runs
	// (Solve, SolveDistributed2DMode, SolveDistributed2DPrecision delegate
	// to these with a nil recorder themselves).
	solve func(n int, seed uint64, rec *trace.Recorder) (phihpl.SolveResult, error)
	// reference solves a·x = b the way the workload's X must match bit for bit.
	reference func(a *matrix.Dense, b []float64) ([]float64, error)
}

func libraryFor(name string) (library, error) {
	w := workers()
	sequential := func(nb int) func(*matrix.Dense, []float64) ([]float64, error) {
		return func(a *matrix.Dense, b []float64) ([]float64, error) {
			x, _, err := lu.Solve(a, b, lu.Options{NB: nb, Workers: 1}, lu.Sequential)
			return x, err
		}
	}
	dist := func(nb int, prec phihpl.PrecisionMode) func(int, uint64, *trace.Recorder) (phihpl.SolveResult, error) {
		return func(n int, seed uint64, rec *trace.Recorder) (phihpl.SolveResult, error) {
			return phihpl.SolveDistributed2DPrecisionCtx(context.Background(), n, nb, 2, 2, seed, phihpl.LookaheadPipelined, prec, rec)
		}
	}
	switch name {
	case wlNative:
		return library{reference: sequential(64),
			solve: func(n int, seed uint64, rec *trace.Recorder) (phihpl.SolveResult, error) {
				return phihpl.SolveTraced(n, phihpl.DynamicDAG, 64, w, seed, rec)
			}}, nil
	case wlDist2D:
		return library{reference: sequential(32), solve: dist(32, phihpl.PrecisionFP64)}, nil
	case wlMixed:
		return library{mixedNB: 64, solve: dist(64, phihpl.PrecisionMixed),
			reference: func(a *matrix.Dense, b []float64) ([]float64, error) {
				x, _, _, err := lu.SolveMixed(a, b, lu.Options{NB: 64, Workers: w})
				return x, err
			}}, nil
	}
	return library{}, fmt.Errorf("unknown workload %q", name)
}

// verdict is the reason a solve result does not count, empty when it does.
// mixedNB is the block size of a mixed-precision solve, 0 for an FP64 one.
func verdict(res phihpl.SolveResult, err error, mixedNB int, seed uint64) string {
	switch {
	case err != nil:
		return "solve: " + err.Error()
	case !res.Passed || math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) || res.Residual >= phihpl.ResidualThreshold:
		return fmt.Sprintf("residual %g is not PASSED", res.Residual)
	case mixedNB > 0:
		return fallbackVerdict(res.Refine, res.N, mixedNB, seed)
	}
	return ""
}

// fallbackVerdict judges a mixed solve's refinement report. About one random
// system in several thousand is beyond FP32's reach and legitimately falls
// back to FP64; that is a property of the input, so it fails only where
// lu.SolveMixed, the reference mixed solver, does not fall back as well.
// The reference solve runs only then, so it costs the window nothing.
func fallbackVerdict(rep *phihpl.RefineReport, n, nb int, seed uint64) string {
	if rep == nil {
		return "mixed solve reported no refinement"
	}
	if !rep.FellBack {
		return ""
	}
	a, b := matrix.RandomSystem(n, seed)
	if _, _, ref, err := lu.SolveMixed(a, b, lu.Options{NB: nb, Workers: workers()}); err == nil && ref.FellBack {
		return ""
	}
	return "mixed solve fell back to FP64 where lu.SolveMixed does not"
}

// repeatEvery makes every so-manieth timed operation reuse the first warm-up
// seed: its X must hash equal to the warm-up's, which is in turn checked
// against the reference solver after the window, so a bitwise check covers
// the whole window at no cost inside it.
const repeatEvery = 16

// runLibrary is the end-to-end child of a library workload: warm-up, the
// timed closed loop of one caller, then the bitwise reference checks. No
// recorder or registry is ever attached in this process.
func runLibrary(cfg childConfig) (childResult, error) {
	wl, err := libraryFor(cfg.Workload)
	if err != nil {
		return childResult{}, err
	}
	var res childResult
	sz := cfg.Size
	warmSeed := func(i int) uint64 { return mix(cfg.Seed, cfg.Child, -1-i) }
	warmHash := make([]uint64, sz.Warm)
	for i := range warmHash {
		r, err := wl.solve(sz.N, warmSeed(i), nil)
		if why := verdict(r, err, wl.mixedNB, warmSeed(i)); why != "" {
			res.mismatch(fmt.Sprintf("warm-up %d: %s", i, why))
			continue
		}
		warmHash[i] = hashBits(r.X)
	}

	start := time.Now()
	res.SetupS = float64(start.UnixNano()-cfg.Spawned) / 1e9
	for i := 0; ; i++ {
		if sz.Ops > 0 && i >= sz.Ops || sz.Ops == 0 && time.Since(start).Seconds() >= cfg.Window {
			break
		}
		seed, repeat := mix(cfg.Seed, cfg.Child, i), i%repeatEvery == repeatEvery-1
		if repeat {
			seed = warmSeed(0)
		}
		t := time.Now()
		r, err := wl.solve(sz.N, seed, nil)
		res.Samples = append(res.Samples, time.Since(t).Seconds())
		why := verdict(r, err, wl.mixedNB, seed)
		if why == "" && repeat && hashBits(r.X) != warmHash[0] {
			why = "X differs from the same seed's warm-up solve"
		}
		res.note(sz.N, why)
	}
	res.WindowS = time.Since(start).Seconds()
	res.PeakRSS = peakRSSMiB()

	for i, h := range warmHash {
		a, b := matrix.RandomSystem(sz.N, warmSeed(i))
		x, err := wl.reference(a, b)
		if err != nil {
			res.mismatch(fmt.Sprintf("reference %d: %v", i, err))
		} else if hashBits(x) != h {
			res.mismatch(fmt.Sprintf("warm-up %d: X is not bit-identical to the reference solver", i))
		}
	}
	return res, nil
}

// hooks is every observability sink the library exposes, attached together.
type hooks struct {
	rec *trace.Recorder // pool and blas spans; kept apart from the trace file, whose lanes they would share
	reg *metrics.Registry
}

func (h hooks) attach() {
	blas.SetObservability(h.rec, h.reg)
	pool.SetObservability(h.rec, h.reg)
	offload.SetObservability(h.rec, h.reg)
	cluster.SetMetrics(h.reg)
	lu.SetMetrics(h.reg)
	hpl.SetMetrics(h.reg)
}

func detachHooks() { hooks{}.attach() }

// Lanes of the benchmark's own spans in the trace files, clear of the
// worker and rank lanes the drivers use.
const (
	opLane   = 1000 // one span per operation, iter = operation index
	callLane = 1001 // the calls beneath it
)

// traceLibrary is the traced child of a library workload. It alternates
// operations with every hook on and with none (the same seed both times),
// which yields the trace file and trace.overhead_frac, then replays the
// workload's layers one call at a time.
func traceLibrary(cfg childConfig) (childResult, error) {
	wl, err := libraryFor(cfg.Workload)
	if err != nil {
		return childResult{}, err
	}
	res := childResult{Layer: map[string]float64{}}
	replay := &ladder{cfg: cfg, out: res.Layer}
	sz := cfg.Size
	rec := new(trace.Recorder)
	h := hooks{rec: new(trace.Recorder), reg: metrics.NewRegistry()}
	var on, off pass
	for i := 0; i < sz.TraceOps; i++ {
		seed := mix(cfg.Seed, cfg.Child, i)
		h.attach()
		t0 := rec.Start()
		t := time.Now()
		r, err := wl.solve(sz.N, seed, rec)
		on.add(time.Since(t).Seconds(), r)
		rec.Since(opLane, "op."+cfg.Workload, i, t0)
		detachHooks()
		res.note(sz.N, verdict(r, err, wl.mixedNB, seed))

		t = time.Now()
		r, err = wl.solve(sz.N, seed, nil)
		off.add(time.Since(t).Seconds(), r)
		res.note(sz.N, verdict(r, err, wl.mixedNB, seed))
	}
	res.Layer["trace.overhead_frac."+cfg.Workload] = paired(on.wall, off.wall, ratio) - 1

	switch cfg.Workload {
	case wlNative:
		// Parallel and serial regions both: the DAG workers enter the pool
		// with one worker each, which it counts as serial.
		regions := h.reg.Counter("pool.regions").Value() + h.reg.Counter("pool.serial_regions").Value()
		res.Layer["pool.regions_per_solve"] = float64(regions) / float64(sz.TraceOps)
		replay.native(rec, median(off.wall))
	case wlDist2D:
		perRank := float64(sz.TraceOps * 4)
		totals := rec.Totals()
		for span, name := range map[string]string{"panel": "panel", "Lbcast": "lbcast", "swap": "swap", "Ubcast": "ubcast", "GEMM": "gemm"} {
			res.Layer["hpl.phase."+name+"_s"] = totals[span] / perRank
		}
		res.Layer["hpl.gemm_frac"] = res.Layer["hpl.phase.gemm_s"] / median(on.timed)
		res.Layer["hpl.timed_s"] = median(off.timed)
		res.Layer["hpl.untimed_frac"] = (median(off.wall) - median(off.timed)) / median(off.wall)
		res.Layer["cluster.resends"] = float64(h.reg.Counter("cluster.resends").Value())
		replay.dist2d()
	case wlMixed:
		res.Layer["hpl.mixed_timed_s"] = median(off.timed)
		res.Layer["hpl.refine_iters"] = median(off.iters)
		replay.mixed()
	}
	if replay.err != nil {
		return res, replay.err
	}
	return res, writeTrace(cfg, rec)
}

// pass collects one side of the on/off alternation.
type pass struct{ wall, timed, iters []float64 }

func (p *pass) add(wall float64, r phihpl.SolveResult) {
	p.wall = append(p.wall, wall)
	p.timed = append(p.timed, r.Seconds)
	if r.Refine != nil {
		p.iters = append(p.iters, float64(r.Refine.Iterations))
	}
}

// writeTrace writes the benchmark's and the drivers' spans as Chrome trace
// JSON to <out>/<workload>.trace.json.
func writeTrace(cfg childConfig, rec *trace.Recorder) error {
	f, err := os.Create(filepath.Join(cfg.Out, cfg.Workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
