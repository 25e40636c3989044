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
// With -trace, the packed fast path's per-K-block pack/compute phases are
// recorded and written as Chrome trace-event JSON (chrome://tracing or
// ui.perfetto.dev); -metrics prints the registry snapshot (packed calls,
// bytes packed, flops, GFLOPS of the timed DgemmPacked run, pool drops).
package main

import (
	"flag"
	"fmt"
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

func main() {
	var (
		m        = flag.Int("m", 512, "rows of C")
		n        = flag.Int("n", 512, "cols of C")
		k        = flag.Int("k", 256, "inner dimension")
		verify   = flag.Bool("verify", false, "run all real DGEMM paths and compare")
		project  = flag.Bool("project", false, "print machine-model projections")
		seed     = flag.Uint64("seed", 1, "operand seed")
		traceOut = flag.String("trace", "", "write Chrome trace-event JSON of a timed DgemmPacked run to this file")
		metricsF = flag.Bool("metrics", false, "print a metrics snapshot after the run")
	)
	flag.Parse()
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
		fmt.Printf("DgemmPacked %dx%dx%d: %.3fs, %.2f GFLOPS\n", *m, *n, *k, elapsed, gflops)
		if reg != nil {
			reg.Gauge("blas.packed_gflops").Set(gflops)
		}

		if rec != nil {
			f, err := os.Create(*traceOut)
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
				len(rec.Spans()), *traceOut)
		}
		if reg != nil {
			fmt.Println("metrics:")
			reg.WriteText(os.Stdout)
		}
	}

	if *verify {
		a := matrix.RandomGeneral(*m, *k, *seed)
		b := matrix.RandomGeneral(*k, *n, *seed+1)
		ref := matrix.NewDense(*m, *n)
		blas.Dgemm(false, false, 1, a, b, 0, ref)

		packed := matrix.NewDense(*m, *n)
		pack.Gemm(pack.PackA(a, pack.DefaultTileM), pack.PackB(b), packed, 4)
		fmt.Printf("packed-tile kernel vs reference: maxdiff %.3g\n", matrix.MaxDiff(packed, ref))

		fast := matrix.NewDense(*m, *n)
		blas.DgemmPacked(false, false, 1, a, b, 0, fast, 4)
		fmt.Printf("packed fast path (DgemmPacked) vs reference: maxdiff %.3g\n", matrix.MaxDiff(fast, ref))

		off := matrix.NewDense(*m, *n)
		stats := offload.Compute(a, b, off, offload.RealConfig{Mt: 64, Nt: 64, CardWorkers: 2, HostWorkers: 2})
		fmt.Printf("offload work-stealing vs reference: maxdiff %.3g (card %d tiles, host %d tiles)\n",
			matrix.MaxDiff(off, ref), stats.CardTiles, stats.HostTiles)
		if !matrix.Equal(off, packed) {
			fmt.Println("offload work-stealing vs packed-tile kernel mismatch!")
			os.Exit(1)
		}
		fmt.Println("offload work-stealing: bitwise identical to packed-tile kernel")

		par := matrix.NewDense(*m, *n)
		blas.DgemmParallel(false, false, 1, a, b, 0, par, 8)
		if !matrix.Equal(par, ref) {
			fmt.Println("parallel DGEMM mismatch!")
			os.Exit(1)
		}
		fmt.Println("parallel DGEMM: bitwise identical to reference")
	}

	if *project {
		knc := perfmodel.NewKNC()
		snb := perfmodel.NewSNB()
		fmt.Printf("Knights Corner DGEMM %dx%dx%d: %.1f GFLOPS (%.1f%% of 60-core peak)\n",
			*m, *n, *k, knc.DgemmGFLOPS(*m, *n, *k), knc.DgemmEff(*m, *n, *k)*100)
		fmt.Printf("Sandy Bridge EP (MKL model):   %.1f GFLOPS (%.1f%%)\n",
			snb.DgemmEff(minInt(*m, *n))*snb.Arch.PeakDPGFLOPS(), snb.DgemmEff(minInt(*m, *n))*100)
		r := offload.Simulate(*m, *n, offload.SimConfig{Cards: 1})
		fmt.Printf("offload DGEMM (1 card, Kt=1200): %.1f GFLOPS (%.1f%%), tile %d\n",
			r.GFLOPS, r.Eff*100, r.Mt)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
