// Command bench is the repository's benchmark: four solve workloads, five
// end-to-end metrics on each, and a traced pass that scores every layer
// against the one beneath it. See README.md beside this file.
//
//	go run ./bench                                     every workload, tracing off
//	go run ./bench -trace 1                            the per-layer ladder and the trace files
//	go run ./bench -runs 3 -o a.json                   a set of runs, saved
//	go run ./bench -compare a.json b.json              two sets, metric by metric
//	go run ./bench -workload native -seed 7 -trace 0   one run, as the driver asks for it
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		childMain()
		return
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// value is one metric of one run, as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload; its JSON is the line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is a result with what a set file needs to place it.
type run struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// set is what -o writes and -compare reads.
type set struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seconds     float64     `json:"seconds"`
	Runs        []run       `json:"runs"`
}

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: native, dist2d, dist2d_mixed, server or all")
	seed := fs.Uint64("seed", 1, "every matrix seed and the server schedule derive from it")
	seconds := fs.Float64("seconds", runSeconds, "timed window of one run, shared by its child processes")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	runs := fs.Int("runs", 1, "runs per workload; run r uses seed+r")
	save := fs.String("o", "", "write the set of runs to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two saved sets: -compare base.json new.json")
	smoke := fs.Bool("smoke", false, "tiny sizes and fixed operation counts; checks the harness, measures nothing")
	out := fs.String("out", "bench/out", "directory for trace files and journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	names := workloads
	if *workload != "all" || *traced == 1 {
		names = []string{*workload} // a traced run covers every workload by itself
	}
	size := fullSize
	if *smoke {
		size = smokeSize
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	fp := takeFingerprint(*seed, *out)
	fmt.Fprint(stdout, fp)
	saved := set{Fingerprint: fp, Seconds: *seconds}
	var last result
	ok := true
	for r := 0; r < *runs; r++ {
		for _, name := range names {
			cfg := childConfig{Workload: name, Seed: *seed + uint64(r), Size: size, Out: *out}
			var res result
			var err error
			if *traced == 1 {
				res, err = ladderRun(cfg, stdout)
			} else {
				res, err = endToEndRun(cfg, *seconds, stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			ok = ok && res.Correct
			last = res
			saved.Runs = append(saved.Runs, run{Workload: name, Seed: cfg.Seed, result: res})
		}
	}
	if *save != "" {
		b, err := json.MarshalIndent(saved, "", " ")
		if err == nil {
			err = os.WriteFile(*save, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(saved.Runs) == 1 {
		// The driver's contract: the last line is this one run, alone.
		if err := json.NewEncoder(stdout).Encode(last); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: at least one result was wrong")
		return 1
	}
	return 0
}

// childTimeout is far above any child's run time (≈ 5 s end to end, ≈ 15 s
// traced) and below the 180 s a whole run may take.
const childTimeout = 100 * time.Second

// spawn runs one child process of this same program and decodes its result.
func spawn(cfg childConfig) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cfg.Spawned = time.Now().UnixNano()
	env, err := json.Marshal(cfg)
	if err != nil {
		return res, err
	}
	// A wedged solve must not outlive the driver's patience: kill the child
	// and fail the run instead.
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(env))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("child %d: %w", cfg.Child, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("child %d: %w", cfg.Child, err)
	}
	return res, nil
}

// endToEndRun is one tracing-off run: Children fresh processes one after
// the other, each with its own set-up and its share of the timed window.
func endToEndRun(cfg childConfig, seconds float64, w io.Writer) (result, error) {
	var samples, setup, rate, rss []float64
	var flops, window float64
	res := result{Metrics: map[string]value{}}
	var reasons []string
	cfg.Window = seconds / float64(cfg.Size.Children)
	for c := 0; c < cfg.Size.Children; c++ {
		cfg.Child = c
		cr, err := spawn(cfg)
		if err != nil {
			return res, err
		}
		if len(cr.Samples) == 0 {
			return res, errors.New("no timed operation completed")
		}
		samples = append(samples, cr.Samples...)
		setup = append(setup, cr.SetupS)
		rate = append(rate, cr.Flops/cr.WindowS/1e9)
		rss = append(rss, cr.PeakRSS)
		flops += cr.Flops
		window += cr.WindowS
		res.Attempted += cr.Attempts
		res.Failed += cr.Failed
		reasons = append(reasons, cr.Reasons...)
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(w, "\n%s  seed=%d  failed/attempted=%d/%d\n", cfg.Workload, cfg.Seed, res.Failed, res.Attempted)
	for _, why := range reasons {
		fmt.Fprintln(w, "  FAILED:", why)
	}
	// Each metric's value, and the samples whose count and quartiles are shown.
	report := map[string]struct {
		v float64
		s []float64
	}{
		"setup_s":     {median(setup), setup},
		"solve_s":     {median(samples), samples},
		"solve_p90_s": {quantile(samples, 0.9), samples},
		"gflops":      {flops / window / 1e9, rate},
		"peak_rss_mb": {median(rss), rss},
	}
	for _, d := range endToEnd {
		m := report[d.Name]
		res.Metrics[d.Name] = value{m.v, d.Unit}
		fmt.Fprintf(w, "  %-12s %12.6g %-8s n=%-5d q1=%.6g median=%.6g q3=%.6g\n",
			d.Name, m.v, d.Unit, len(m.s), quantile(m.s, 0.25), median(m.s), quantile(m.s, 0.75))
	}
	return res, check(res, endToEnd)
}

// ladderRun is one traced run. Whatever workload it was asked for, it runs
// the traced child of all four, because the driver reads every per-layer
// metric from every traced run; a layer's number does not depend on which.
func ladderRun(cfg childConfig, w io.Writer) (result, error) {
	res := result{Metrics: map[string]value{}}
	layer := map[string]float64{}
	cfg.Trace = true
	fmt.Fprintf(w, "\nper-layer ladder  seed=%d  (asked for %s; all four traced children run)\n", cfg.Seed, cfg.Workload)
	for _, name := range workloads {
		cfg.Workload = name
		cr, err := spawn(cfg)
		if err != nil {
			return res, fmt.Errorf("traced %s: %w", name, err)
		}
		res.Attempted += cr.Attempts
		res.Failed += cr.Failed
		for _, why := range cr.Reasons {
			fmt.Fprintf(w, "  FAILED: %s: %s\n", name, why)
		}
		for k, v := range cr.Layer {
			layer[k] = v
		}
	}
	// The one rung that spans two children.
	layer["hpl.pct_lu"] = 100 * hplFlops(cfg.Size.N) / layer["hpl.timed_s"] / 1e9 / layer["lu.factor_gflops"]
	res.Correct = res.Failed == 0
	for _, d := range perLayer {
		if v, ok := layer[d.Name]; ok {
			res.Metrics[d.Name] = value{v, d.Unit}
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	if len(layer) != len(res.Metrics) {
		return res, fmt.Errorf("a traced child emitted a metric BENCHMARK.json does not name: %v", layer)
	}
	fmt.Fprintf(w, "  trace files: %s/<workload>.trace.json  failed/attempted=%d/%d\n", cfg.Out, res.Failed, res.Attempted)
	return res, check(res, perLayer)
}

// check holds a result to the defined metric list: every metric present
// and finite.
func check(res result, defs []metricDef) error {
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if res.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	return nil
}
