// Benchmarks regenerating every table and figure of the paper's evaluation
// (run `go test -bench=. -benchmem`), plus real-compute benchmarks of the
// functional kernels and ablation benchmarks for the design choices called
// out in DESIGN.md. The virtual-time benchmarks report the simulated
// GFLOPS/efficiency as custom metrics; wall time measures the simulator,
// not the modelled machine.
package phihpl

import (
	"context"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/hpl"
	"phihpl/internal/kernels"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/offload"
	"phihpl/internal/pack"
	"phihpl/internal/perfmodel"
	"phihpl/internal/simlu"
	"phihpl/internal/stream"
)

// --- paper experiments ---------------------------------------------------

// BenchmarkTable2 regenerates Table II (DGEMM/SGEMM efficiency vs k).
func BenchmarkTable2(b *testing.B) {
	m := perfmodel.NewKNC()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, k := range []int{120, 180, 240, 300, 340, 400} {
			last = m.DgemmGFLOPS(28000, 28000, k)
			m.SgemmGFLOPS(28000, 28000, k)
		}
	}
	b.ReportMetric(last, "dgemm_k400_GFLOPS")
	b.ReportMetric(m.DgemmGFLOPS(28000, 28000, 300), "dgemm_k300_GFLOPS")
}

// BenchmarkFig4 regenerates Figure 4 (DGEMM vs size, packing overhead).
func BenchmarkFig4(b *testing.B) {
	m := perfmodel.NewKNC()
	for i := 0; i < b.N; i++ {
		for n := 1000; n <= 28000; n += 1000 {
			m.DgemmEff(n, n, 300)
			m.DgemmKernelEff(n, n, 300)
		}
	}
	b.ReportMetric(m.DgemmGFLOPS(28000, 28000, 300), "GFLOPS_28K")
	b.ReportMetric(perfmodel.PackOverhead(1000)*100, "packov_1K_pct")
}

// BenchmarkFig6 regenerates Figure 6 (native Linpack, static vs dynamic).
func BenchmarkFig6(b *testing.B) {
	var dyn, sta simlu.Result
	for i := 0; i < b.N; i++ {
		for _, n := range []int{5000, 15000, 30000} {
			dyn = simlu.Dynamic(simlu.Config{N: n})
			sta = simlu.Static(simlu.Config{N: n})
		}
	}
	b.ReportMetric(dyn.GFLOPS, "dynamic_30K_GFLOPS")
	b.ReportMetric(sta.GFLOPS, "static_30K_GFLOPS")
	b.ReportMetric(dyn.Eff*100, "dynamic_30K_eff_pct")
}

// BenchmarkFig7 regenerates Figure 7 (5K Gantt traces).
func BenchmarkFig7(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Fig7()
	}
	b.ReportMetric(float64(len(out)), "chars")
}

// BenchmarkFig9 regenerates Figure 9 (hybrid iteration profile, 2x2).
func BenchmarkFig9(b *testing.B) {
	var basic, pipe hpl.SimResult
	for i := 0; i < b.N; i++ {
		basic = hpl.Simulate(hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 2, Lookahead: hpl.LookaheadBasic})
		pipe = hpl.Simulate(hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 2, Lookahead: hpl.LookaheadPipelined})
	}
	b.ReportMetric(basic.CardIdleFrac*100, "basic_idle_pct")
	b.ReportMetric(pipe.CardIdleFrac*100, "pipelined_idle_pct")
}

// BenchmarkFig11 regenerates Figure 11 (offload DGEMM, 1 and 2 cards).
func BenchmarkFig11(b *testing.B) {
	var r1, r2 offload.SimResult
	for i := 0; i < b.N; i++ {
		r1 = offload.Simulate(82000, 82000, offload.SimConfig{Cards: 1})
		r2 = offload.Simulate(82000, 82000, offload.SimConfig{Cards: 2})
	}
	b.ReportMetric(r1.GFLOPS, "1card_GFLOPS")
	b.ReportMetric(r2.GFLOPS, "2card_GFLOPS")
}

// BenchmarkTable3 regenerates Table III (all 15 rows).
func BenchmarkTable3(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table3()
	}
	b.ReportMetric(float64(len(out)), "chars")
	r := hpl.Simulate(hpl.SimConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: hpl.LookaheadPipelined})
	b.ReportMetric(r.TFLOPS, "cluster_TFLOPS")
	b.ReportMetric(r.Eff*100, "cluster_eff_pct")
}

// --- real-compute kernels -------------------------------------------------

// BenchmarkRealDGEMM measures the pure-Go blocked DGEMM.
func BenchmarkRealDGEMM(b *testing.B) {
	n := 256
	a := matrix.RandomGeneral(n, n, 1)
	bb := matrix.RandomGeneral(n, n, 2)
	c := matrix.NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.Dgemm(false, false, 1, a, bb, 0, c)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkRealDGEMMParallel measures the goroutine-parallel DGEMM.
func BenchmarkRealDGEMMParallel(b *testing.B) {
	n := 256
	a := matrix.RandomGeneral(n, n, 1)
	bb := matrix.RandomGeneral(n, n, 2)
	c := matrix.NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.DgemmParallel(false, false, 1, a, bb, 0, c, 8)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkRealDGEMMPackedPath measures the packed-tile fast path at the
// size where it must beat DgemmParallel (n = 512): panels of A and B are
// packed once per call into the Knights Corner tile layout and the 30×8
// micro-kernel runs on the persistent worker pool.
func BenchmarkRealDGEMMPackedPath(b *testing.B) {
	n := 512
	a := matrix.RandomGeneral(n, n, 1)
	bb := matrix.RandomGeneral(n, n, 2)
	c := matrix.NewDense(n, n)
	blas.DgemmPacked(false, false, 1, a, bb, 0, c, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.DgemmPacked(false, false, 1, a, bb, 0, c, 8)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkRealPackedGemm measures the Knights Corner-layout micro-kernel
// path (pack + tiled multiply), the data path of the offload engine.
func BenchmarkRealPackedGemm(b *testing.B) {
	m, k, n := 240, 240, 240
	a := matrix.RandomGeneral(m, k, 1)
	bb := matrix.RandomGeneral(k, n, 2)
	c := matrix.NewDense(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pack.Gemm(pack.PackA(a, pack.DefaultTileM), pack.PackB(bb), c, 4)
	}
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkRealLU benchmarks the three real LU drivers.
func BenchmarkRealLU(b *testing.B) {
	for _, d := range []struct {
		name string
		f    func(*matrix.Dense, []int, lu.Options) error
	}{
		{"sequential", lu.Sequential},
		{"static", lu.StaticLookahead},
		{"dynamic", lu.Dynamic},
	} {
		b.Run(d.name, func(b *testing.B) {
			n := 300
			src := matrix.RandomGeneral(n, n, 3)
			piv := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := src.Clone()
				b.StartTimer()
				if err := d.f(a, piv, lu.Options{NB: 48, Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perfmodel.LUFlops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkOffloadCompute measures the real work-stealing offload engine.
func BenchmarkOffloadCompute(b *testing.B) {
	m, k, n := 384, 128, 384
	a := matrix.RandomGeneral(m, k, 1)
	bb := matrix.RandomGeneral(k, n, 2)
	c := matrix.NewDense(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offload.Compute(a, bb, c, offload.RealConfig{Mt: 64, Nt: 64, CardWorkers: 2, HostWorkers: 2})
	}
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkDistributedSolve measures the functional distributed Linpack.
func BenchmarkDistributedSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Spec{Mode: ModeDist2D, N: 300, NB: 32, P: 1, Q: 4, Seed: uint64(i)}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations -------------------------------------------------------------

// BenchmarkAblationKernels compares Basic Kernel 1 (port-conflict stalls)
// against Basic Kernel 2 (swizzle holes) on the pipeline simulator.
func BenchmarkAblationKernels(b *testing.B) {
	var e1, e2 float64
	for i := 0; i < b.N; i++ {
		e1 = kernels.LoopEfficiency(kernels.Kernel1)
		e2 = kernels.LoopEfficiency(kernels.Kernel2)
	}
	b.ReportMetric(e1*100, "kernel1_eff_pct")
	b.ReportMetric(e2*100, "kernel2_eff_pct")
}

// BenchmarkAblationRegroup quantifies super-stage thread regrouping.
func BenchmarkAblationRegroup(b *testing.B) {
	var on, off simlu.Result
	for i := 0; i < b.N; i++ {
		on = simlu.Dynamic(simlu.Config{N: 5000, MaxGroups: 8})
		off = simlu.Dynamic(simlu.Config{N: 5000, MaxGroups: 8, DisableRegroup: true})
	}
	b.ReportMetric(on.GFLOPS, "regroup_on_GFLOPS")
	b.ReportMetric(off.GFLOPS, "regroup_off_GFLOPS")
}

// BenchmarkAblationContention quantifies master-thread-only scheduler
// access vs. all threads entering the critical section.
func BenchmarkAblationContention(b *testing.B) {
	var master, all simlu.Result
	for i := 0; i < b.N; i++ {
		master = simlu.Dynamic(simlu.Config{N: 10000, MaxGroups: 8})
		all = simlu.Dynamic(simlu.Config{N: 10000, MaxGroups: 8, AllThreadsContend: true})
	}
	b.ReportMetric(master.GFLOPS, "master_only_GFLOPS")
	b.ReportMetric(all.GFLOPS, "all_threads_GFLOPS")
}

// BenchmarkAblationTileSelection quantifies run-time tile-size selection
// against a fixed minimal tile.
func BenchmarkAblationTileSelection(b *testing.B) {
	var auto, forced offload.SimResult
	for i := 0; i < b.N; i++ {
		auto = offload.Simulate(40000, 40000, offload.SimConfig{Cards: 1})
		forced = offload.Simulate(40000, 40000, offload.SimConfig{Cards: 1, ForceTile: 1200})
	}
	b.ReportMetric(auto.GFLOPS, "auto_tile_GFLOPS")
	b.ReportMetric(forced.GFLOPS, "forced_1200_GFLOPS")
}

// BenchmarkAblationLookahead compares the three hybrid look-ahead schemes.
func BenchmarkAblationLookahead(b *testing.B) {
	var none, basic, pipe hpl.SimResult
	for i := 0; i < b.N; i++ {
		none = hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadNone})
		basic = hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadBasic})
		pipe = hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadPipelined})
	}
	b.ReportMetric(none.Eff*100, "none_eff_pct")
	b.ReportMetric(basic.Eff*100, "basic_eff_pct")
	b.ReportMetric(pipe.Eff*100, "pipelined_eff_pct")
}

// BenchmarkStreamTriad measures this host's achievable Go memory bandwidth
// with the STREAM triad — the runnable counterpart of Table I's published
// 150/76 GB/s figures.
func BenchmarkStreamTriad(b *testing.B) {
	n := 1 << 22
	a := make([]float64, n)
	bb := make([]float64, n)
	c := make([]float64, n)
	for i := range bb {
		bb[i] = float64(i)
		c[i] = float64(n - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.TriadParallel(a, bb, c, 3.0, 8)
	}
	gb := stream.BytesMoved(stream.TriadOp, n) * float64(b.N) / 1e9
	b.ReportMetric(gb/b.Elapsed().Seconds(), "GB/s")
}

// BenchmarkDistributed2D measures the full HPL-structure solver (P×Q grid,
// distributed swaps and broadcasts) on in-process nodes.
func BenchmarkDistributed2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Spec{Mode: ModeDist2D, N: 240, NB: 24, P: 2, Q: 2, Seed: uint64(i)}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perfmodel.LUFlops(240)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkHybrid2D measures the same solver with trailing updates routed
// through the real offload work-stealing engine.
func BenchmarkHybrid2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Spec{Mode: ModeHybrid2D, N: 240, NB: 24, P: 2, Q: 2, Seed: uint64(i)}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perfmodel.LUFlops(240)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkPanelVariants compares the unblocked and recursive panel
// factorizations on a tall panel.
func BenchmarkPanelVariants(b *testing.B) {
	for _, variant := range []struct {
		name string
		f    func(*matrix.Dense, []int) error
	}{
		{"unblocked", blas.Dgetf2},
		{"recursive", blas.Dgetf2Recursive},
	} {
		b.Run(variant.name, func(b *testing.B) {
			src := matrix.RandomGeneral(2000, 64, 5)
			piv := make([]int, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := src.Clone()
				b.StartTimer()
				if err := variant.f(a, piv); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perfmodel.PanelFlops(2000, 64)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkFig8 regenerates the Figure 8 timelines via the event-driven
// pipeline simulator.
func BenchmarkFig8(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Fig8()
	}
	b.ReportMetric(float64(len(out)), "chars")
}
