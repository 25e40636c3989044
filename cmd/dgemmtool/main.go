// Command dgemmtool exercises the DGEMM layers: it verifies the real
// kernels against each other and prints the machine model's projection for
// a requested shape.
//
// Usage:
//
//	dgemmtool -m 512 -n 512 -k 256 -verify
//	dgemmtool -m 1024 -n 1024 -k 512 -trace dgemm.json -metrics
//	dgemmtool -m 28000 -n 28000 -k 300 -project
//
// -verify prints each path's maxdiff against the reference loop and exits
// 1 unless the offload engine is bitwise the packed-tile kernel and the
// prepacked GEMM (blas.PrepackA/PrepackB/GemmPrepacked) bitwise the
// DgemmPacked fast path.
//
// With -trace, the packed fast path's per-K-block pack/compute phases are
// recorded and written as Chrome trace-event JSON (chrome://tracing or
// ui.perfetto.dev); -metrics prints the registry snapshot (packed calls,
// bytes packed, flops, GFLOPS of the timed DgemmPacked run, pool drops).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
	"phihpl/internal/offload"
	"phihpl/internal/pack"
	"phihpl/internal/perfmodel"
	"phihpl/internal/pool"
	"phihpl/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command on explicit arguments and streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dgemmtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m        = fs.Int("m", 512, "rows of C")
		n        = fs.Int("n", 512, "cols of C")
		k        = fs.Int("k", 256, "inner dimension")
		verify   = fs.Bool("verify", false, "run all real DGEMM paths and compare")
		project  = fs.Bool("project", false, "print machine-model projections")
		seed     = fs.Uint64("seed", 1, "operand seed")
		traceOut = fs.String("trace", "", "write Chrome trace-event JSON of a timed DgemmPacked run to this file")
		metricsF = fs.Bool("metrics", false, "print a metrics snapshot after the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*verify && !*project && *traceOut == "" && !*metricsF {
		*verify = true
	}

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = new(trace.Recorder)
	}
	var reg *metrics.Registry
	if *metricsF {
		reg = metrics.NewRegistry()
	}
	if rec != nil || reg != nil {
		blas.SetObservability(rec, reg)
		pool.SetObservability(nil, reg)

		a := matrix.RandomGeneral(*m, *k, *seed)
		b := matrix.RandomGeneral(*k, *n, *seed+1)
		c := matrix.NewDense(*m, *n)
		blas.DgemmPacked(false, false, 1, a, b, 0, c, pool.Size()) // warm pools
		rec.Reset()
		start := time.Now()
		blas.DgemmPacked(false, false, 1, a, b, 0, c, pool.Size())
		elapsed := time.Since(start).Seconds()
		gflops := 2 * float64(*m) * float64(*n) * float64(*k) / elapsed / 1e9
		fmt.Fprintf(stdout, "DgemmPacked %dx%dx%d: %.3fs, %.2f GFLOPS\n", *m, *n, *k, elapsed, gflops)
		if reg != nil {
			reg.Gauge("blas.packed_gflops").Set(gflops)
		}

		if rec != nil {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return 1
			}
			if err := rec.WriteChromeTrace(f); err != nil {
				f.Close()
				fmt.Fprintln(stderr, "error:", err)
				return 1
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace: %d spans -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(rec.Spans()), *traceOut)
		}
		if reg != nil {
			fmt.Fprintln(stdout, "metrics:")
			reg.WriteText(stdout)
		}
	}

	if *verify {
		a := matrix.RandomGeneral(*m, *k, *seed)
		b := matrix.RandomGeneral(*k, *n, *seed+1)
		ref := matrix.NewDense(*m, *n)
		blas.Dgemm(false, false, 1, a, b, 0, ref)

		packed := matrix.NewDense(*m, *n)
		pack.Gemm(pack.PackA(a, pack.DefaultTileM), pack.PackB(b), packed, 4)
		fmt.Fprintf(stdout, "packed-tile kernel vs reference: maxdiff %.3g\n", matrix.MaxDiff(packed, ref))

		fast := matrix.NewDense(*m, *n)
		blas.DgemmPacked(false, false, 1, a, b, 0, fast, 4)
		fmt.Fprintf(stdout, "packed fast path (DgemmPacked) vs reference: maxdiff %.3g\n", matrix.MaxDiff(fast, ref))

		off := matrix.NewDense(*m, *n)
		stats := offload.Compute(a, b, off, offload.RealConfig{Mt: 64, Nt: 64, CardWorkers: 2, HostWorkers: 2})
		fmt.Fprintf(stdout, "offload work-stealing vs reference: maxdiff %.3g (card %d tiles, host %d tiles)\n",
			matrix.MaxDiff(off, ref), stats.CardTiles, stats.HostTiles)
		if !matrix.Equal(off, packed) {
			fmt.Fprintln(stdout, "offload work-stealing vs packed-tile kernel mismatch!")
			return 1
		}
		fmt.Fprintln(stdout, "offload work-stealing: bitwise identical to packed-tile kernel")

		pre := matrix.NewDense(*m, *n)
		pa, pb := blas.PrepackA(a, 1), blas.PrepackB(b)
		blas.GemmPrepacked(pa, pb, pre, 4)
		pa.Release()
		pb.Release()
		if !matrix.Equal(pre, fast) {
			fmt.Fprintln(stdout, "prepacked GEMM vs packed fast path mismatch!")
			return 1
		}
		fmt.Fprintln(stdout, "prepacked GEMM: bitwise identical to packed fast path")
	}

	if *project {
		knc := perfmodel.NewKNC()
		snb := perfmodel.NewSNB()
		fmt.Fprintf(stdout, "Knights Corner DGEMM %dx%dx%d: %.1f GFLOPS (%.1f%% of 60-core peak)\n",
			*m, *n, *k, knc.DgemmGFLOPS(*m, *n, *k), knc.DgemmEff(*m, *n, *k)*100)
		fmt.Fprintf(stdout, "Sandy Bridge EP (MKL model):   %.1f GFLOPS (%.1f%%)\n",
			snb.DgemmEff(min(*m, *n))*snb.Arch.PeakDPGFLOPS(), snb.DgemmEff(min(*m, *n))*100)
		r := offload.Simulate(*m, *n, offload.SimConfig{Cards: 1})
		fmt.Fprintf(stdout, "offload DGEMM (1 card, Kt=1200): %.1f GFLOPS (%.1f%%), tile %d\n",
			r.GFLOPS, r.Eff*100, r.Mt)
	}
	return 0
}
