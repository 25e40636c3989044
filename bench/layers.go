package main

import (
	"fmt"
	"os"
	"testing"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/hpl"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/offload"
	"phihpl/internal/pack"
	"phihpl/internal/pool"
	"phihpl/internal/stream"
	"phihpl/internal/trace"
)

// Layer replays: each layer's public functions called one at a time, from
// outside, at the shapes the workloads give them. Every number is a median
// of Size.Reps calls after one unmeasured call. GB/s figures divide bytes
// computed from array sizes, not measured traffic.

// ladder carries one traced child's replays into its result.
type ladder struct {
	cfg childConfig
	out map[string]float64
	err error // the first failure; a failed replay fails the child
}

func (l *ladder) check(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// median runs once Reps+1 times; see medianOf.
func (l *ladder) median(once func() float64) float64 { return medianOf(l.cfg.Size.Reps, once) }

// time is the median wall time of f.
func (l *ladder) time(f func()) float64 {
	return l.median(func() float64 { return secs(f) })
}

func gflops(flops, seconds float64) float64 { return flops / seconds / 1e9 }

func cube(n int) float64 { return float64(n) * float64(n) * float64(n) }

// packFrac is the share of the packed GEMM's time spent packing, from the
// pack and compute spans blas emits while f runs: the paper's Fig. 4 quantity.
func packFrac(f func()) float64 {
	rec := new(trace.Recorder)
	blas.SetObservability(rec, nil)
	for i := 0; i < 3; i++ {
		f()
	}
	blas.SetObservability(nil, nil)
	t := rec.Totals()
	return t["pack"] / (t["pack"] + t["compute"])
}

// call times f and records it as a span beneath the current operation.
func call(rec *trace.Recorder, name string, iter int, f func()) float64 {
	t0 := rec.Start()
	d := secs(f)
	rec.Since(callLane, name, iter, t0)
	return d
}

// native replays matrix, pack, blas, pool, dag/lu and stream at the native
// workload's shapes. facadeS is the untraced facade solve's median.
func (l *ladder) native(rec *trace.Recorder, facadeS float64) {
	cfg, out := l.cfg, l.out
	sz, w := cfg.Size, workers()
	n, g := sz.N, sz.Gemm
	const nb, kc = 64, 384 // panel width of the workload; blas's K-block depth
	opts := lu.Options{NB: nb, Workers: w}
	piv := make([]int, n)

	// The facade's solve taken apart into the five calls it makes, one span
	// each under an operation span of their own.
	var gen, factor, subst, resid, whole []float64
	for i := 0; i <= sz.Reps; i++ {
		var a, f *matrix.Dense
		var b, x []float64
		iter := sz.TraceOps + i
		t0 := rec.Start()
		tg := call(rec, "matrix.RandomSystem", iter, func() { a, b = matrix.RandomSystem(n, mix(cfg.Seed, 100, i)) })
		tc := call(rec, "matrix.Clone", iter, func() { f = a.Clone() })
		tf := call(rec, "lu.Dynamic", iter, func() { l.check(lu.Dynamic(f, piv, opts)) })
		ts := call(rec, "blas.LUSolve", iter, func() { x = blas.LUSolve(f, piv, b) })
		tr := call(rec, "matrix.Residual", iter, func() {
			if r := matrix.Residual(a, x, b); !(r < matrix.ResidualThreshold) {
				l.check(fmt.Errorf("decomposed solve: residual %g", r))
			}
		})
		rec.Since(opLane, "op.decomposed", iter, t0)
		if i > 0 {
			gen, factor, subst, resid = append(gen, tg), append(factor, tf), append(subst, ts), append(resid, tr)
			whole = append(whole, tg+tc+tf+ts+tr)
		}
	}
	out["matrix.gen_s"] = median(gen)
	out["matrix.residual_s"] = median(resid)
	out["blas.lusolve_s"] = median(subst)
	out["lu.factor_s"] = median(factor)
	out["lu.factor_gflops"] = gflops(2.0/3.0*cube(n), median(factor))
	out["lu.decomposed_gap_frac"] = (facadeS - median(whole)) / facadeS

	a0, _ := matrix.RandomSystem(n, mix(cfg.Seed, 101, 0))
	factorWith := func(driver func(*matrix.Dense, []int, lu.Options) error, o lu.Options) float64 {
		return l.median(func() float64 {
			f := a0.Clone()
			return secs(func() { l.check(driver(f, piv, o)) })
		})
	}
	out["lu.factor_seq1_s"] = factorWith(lu.Sequential, lu.Options{NB: nb, Workers: 1})
	out["lu.factor_static_s"] = factorWith(lu.StaticLookahead, opts)
	st, err := lu.DynamicStats(a0.Clone(), piv, opts)
	l.check(err)
	out["lu.tasks_per_solve"] = float64(st.TasksIssued)
	out["lu.dag_next_calls"] = float64(st.NextCalls)
	out["lu.worker_util"] = l.median(func() float64 {
		o := opts
		o.Trace = new(trace.Recorder)
		l.check(lu.Dynamic(a0.Clone(), piv, o))
		util := o.Trace.WorkerUtilization()
		sum := 0.0
		for _, u := range util {
			sum += u
		}
		return sum / float64(len(util))
	})

	// pack: the micro-kernel on one full 30×8 tile pair (cache-resident, one
	// goroutine: the base of the ladder), and the two packers.
	const calls = 1000
	aTile := matrix.RandomGeneral(pack.DefaultTileM, kc, 1).Data
	bTile := matrix.RandomGeneral(kc, pack.TileN, 2).Data
	cTile := make([]float64, pack.DefaultTileM*pack.TileN)
	out["pack.kernel_gflops"] = gflops(2*pack.DefaultTileM*pack.TileN*kc*calls, l.time(func() {
		for i := 0; i < calls; i++ {
			pack.MicroKernel(aTile, pack.DefaultTileM, kc, bTile, cTile, pack.TileN, pack.DefaultTileM, pack.TileN)
		}
	}))
	tall, wide := matrix.RandomGeneral(n, kc, 3), matrix.RandomGeneral(kc, n, 4)
	pa := &pack.A{M: n, K: kc, TileM: pack.DefaultTileM}
	pa.Data = make([]float64, pa.Tiles()*pa.TileM*kc)
	pb := &pack.B{K: kc, N: n}
	pb.Data = make([]float64, pb.Tiles()*kc*pack.TileN)
	packedBytes := float64(2 * 8 * n * kc) // source read once, packed copy written once
	out["pack.packA_gbps"] = packedBytes / 1e9 / l.time(func() {
		for t := 0; t < pa.Tiles(); t++ {
			pack.PackATileOp(pa, tall, false, 1, 0, t)
		}
	})
	out["pack.packB_gbps"] = packedBytes / 1e9 / l.time(func() {
		for t := 0; t < pb.Tiles(); t++ {
			pack.PackBTileOp(pb, wide, false, 0, t)
		}
	})

	// blas at the shapes one native stage uses, plus the square GEMM.
	ga, gb, gc := matrix.RandomGeneral(g, g, 5), matrix.RandomGeneral(g, g, 6), matrix.NewDense(g, g)
	dgemm := func() { blas.DgemmPacked(false, false, 1, ga, gb, 1, gc, w) }
	out["blas.dgemm_gflops"] = gflops(2*cube(g), l.time(dgemm))
	out["blas.dgemm_pct_kernel"] = 100 * out["blas.dgemm_gflops"] / (float64(w) * out["pack.kernel_gflops"])
	out["lu.pct_blas"] = 100 * out["lu.factor_gflops"] / out["blas.dgemm_gflops"]
	out["blas.pack_frac_1024"] = packFrac(dgemm)
	h := g / 2
	ha, hb, hc := ga.View(0, 0, h, h), gb.View(0, 0, h, h), gc.View(0, 0, h, h)
	out["blas.dgemm_allocs"] = testing.AllocsPerRun(10, func() { blas.DgemmPacked(false, false, 1, ha, hb, 1, hc, w) })

	m := n - nb
	left, top, trail := matrix.RandomGeneral(m, nb, 7), matrix.RandomGeneral(nb, m, 8), matrix.NewDense(m, m)
	out["blas.rankk64_gflops"] = gflops(2*float64(m)*float64(m)*nb, l.time(func() { blas.RankKUpdate(left, top, trail, w) }))
	panel := matrix.RandomGeneral(n, nb, 9)
	ppiv := make([]int, nb)
	panelWith := func(factor func(*matrix.Dense, []int) error) float64 {
		return l.median(func() float64 {
			p := panel.Clone()
			return secs(func() { l.check(factor(p, ppiv)) })
		})
	}
	out["blas.panel_s"] = panelWith(blas.Dgetf2)
	out["blas.panel_rec_s"] = panelWith(blas.Dgetf2Recursive)
	tri := matrix.RandomGeneral(nb, nb, 10)
	out["blas.trsm_s"] = l.median(func() float64 {
		u := top.Clone()
		return secs(func() { blas.Dtrsm(blas.Left, blas.Lower, false, blas.Unit, 1, tri, u) })
	})
	out["blas.laswp_s"] = l.time(func() { blas.Dlaswp(a0, ppiv, 0) })

	const regions = 2000
	out["pool.dispatch_us"] = 1e6 / regions * l.time(func() {
		for i := 0; i < regions; i++ {
			pool.Do(w, w, func(int) {})
		}
	})

	// stream: each array four times the last-level cache, capped so a huge
	// cache cannot exhaust memory; both sizes are printed.
	llc := lastLevelCacheBytes()
	bytes := min(max(4*llc, 64<<20), sz.TriadCapMiB<<20)
	fmt.Fprintf(os.Stderr, "stream.triad_gbps: 3 arrays of %d bytes each, last-level cache %d bytes\n", bytes, llc)
	dst, x, y := make([]float64, bytes/8), make([]float64, bytes/8), make([]float64, bytes/8)
	for i := range x {
		x[i], y[i] = 1, 2
	}
	out["stream.triad_gbps"] = float64(3*bytes) / 1e9 / l.time(func() { stream.TriadParallel(dst, x, y, 3, w) })
}

// dist2d replays what the native path does not use: rank-32 updates on a
// rank's local block, the prepack, the cluster fabric, the look-ahead
// schedules side by side, and the offload engine.
func (l *ladder) dist2d() {
	cfg, out := l.cfg, l.out
	sz, w := cfg.Size, workers()
	n, g := sz.N, sz.Gemm
	const nb = 32

	m := n / 2 // a rank's local trailing block on the 2×2 grid
	left, top, trail := matrix.RandomGeneral(m, nb, 1), matrix.RandomGeneral(nb, m, 2), matrix.NewDense(m, m)
	rankk := func() { blas.RankKUpdate(left, top, trail, w) }
	out["blas.rankk32_gflops"] = gflops(2*float64(m)*float64(m)*nb, l.time(rankk))
	out["blas.pack_frac_k32"] = packFrac(rankk)
	out["blas.prepack32_s"] = l.time(func() {
		pa, pb := blas.PrepackA(left, -1), blas.PrepackB(top)
		pa.Release()
		pb.Release()
	})

	l.cluster()

	var none, pipelined []float64
	for i := 0; i <= sz.Reps; i++ {
		for _, mode := range []hpl.LookaheadMode{hpl.LookaheadNone, hpl.LookaheadPipelined} {
			r, err := hpl.SolveDistributed2DMode(n, nb, 2, 2, mix(cfg.Seed, 102, i), mode)
			l.check(err)
			switch {
			case i == 0:
			case mode == hpl.LookaheadNone:
				none = append(none, r.Seconds)
			default:
				pipelined = append(pipelined, r.Seconds)
			}
		}
	}
	out["hpl.lookahead_gain"] = median(none) / median(pipelined)

	oa, ob, oc := matrix.RandomGeneral(g, 64, 3), matrix.RandomGeneral(64, g, 4), matrix.NewDense(g, g)
	out["offload.gemm_gflops"] = gflops(2*float64(g)*float64(g)*64, l.time(func() { offload.Compute(oa, ob, oc, offload.RealConfig{}) }))
}

// cluster times the fabric's primitives on fresh lossless worlds.
func (l *ladder) cluster() {
	const tag = 7
	// world runs body on every rank and returns what rank 0 measured.
	world := func(ranks int, body func(c *cluster.Comm) (float64, error)) float64 {
		return l.median(func() float64 {
			var at0 float64
			l.check(cluster.NewWorld(ranks, 16).Run(func(c *cluster.Comm) error {
				v, err := body(c)
				if c.Rank() == 0 {
					at0 = v
				}
				return err
			}))
			return at0
		})
	}
	// timed runs round `rounds` times between two barriers.
	timed := func(c *cluster.Comm, rounds int, round func() error) (float64, error) {
		if err := c.Barrier(); err != nil {
			return 0, err
		}
		t := time.Now()
		for i := 0; i < rounds; i++ {
			if err := round(); err != nil {
				return 0, err
			}
		}
		err := c.Barrier()
		return time.Since(t).Seconds() / float64(rounds), err
	}

	word := []float64{1}
	l.out["cluster.pingpong_us"] = 1e6 * world(2, func(c *cluster.Comm) (float64, error) {
		peer := 1 - c.Rank()
		return timed(c, 2000, func() error {
			if c.Rank() == 0 {
				if err := c.Send(peer, tag, word, nil); err != nil {
					return err
				}
				_, err := c.Recv(peer, tag)
				return err
			}
			if _, err := c.Recv(peer, tag); err != nil {
				return err
			}
			return c.Send(peer, tag, word, nil)
		})
	})

	mib := make([]float64, 1<<20/8)
	l.out["cluster.send_gbps"] = float64(1<<20) / 1e9 / world(2, func(c *cluster.Comm) (float64, error) {
		return timed(c, 50, func() error {
			if c.Rank() == 0 {
				return c.Send(1, tag, mib, nil)
			}
			_, err := c.Recv(0, tag)
			return err
		})
	})

	panel := make([]float64, 512<<10/8)
	l.out["cluster.bcast_us"] = 1e6 * world(4, func(c *cluster.Comm) (float64, error) {
		return timed(c, 100, func() error {
			var payload []float64
			if c.Rank() == 0 {
				payload = panel
			}
			_, err := c.Bcast(0, tag, payload, nil)
			return err
		})
	})

	l.out["cluster.barrier_us"] = 1e6 * world(4, func(c *cluster.Comm) (float64, error) {
		return timed(c, 2000, c.Barrier)
	})
}

// mixed replays the FP32 twins: kernel, packed SGEMM, panel, blocked
// factorization, and the shared-memory mixed solve beside its FP64 equal.
func (l *ladder) mixed() {
	cfg, out := l.cfg, l.out
	sz, w := cfg.Size, workers()
	n, g := sz.N, sz.Gemm
	const nb, kc, calls = 64, 384, 1000
	random32 := func(r, c int, seed uint64) *matrix.Dense32 { return matrix.RandomGeneral(r, c, seed).ToDense32() }

	aTile, bTile := random32(pack.DefaultTileM32, kc, 1).Data, random32(kc, pack.TileN32, 2).Data
	cTile := make([]float32, pack.DefaultTileM32*pack.TileN32)
	out["pack.kernel32_gflops"] = gflops(2*pack.DefaultTileM32*pack.TileN32*kc*calls, l.time(func() {
		for i := 0; i < calls; i++ {
			pack.MicroKernel32(aTile, pack.DefaultTileM32, kc, bTile, cTile, pack.TileN32, pack.DefaultTileM32, pack.TileN32)
		}
	}))
	ga, gb, gc := random32(g, g, 3), random32(g, g, 4), matrix.NewDense32(g, g)
	out["blas.sgemm_gflops"] = gflops(2*cube(g), l.time(func() { blas.SgemmPacked(false, false, 1, ga, gb, 1, gc, w) }))
	m := n - nb
	left, top, trail := random32(m, nb, 5), random32(nb, m, 6), matrix.NewDense32(m, m)
	out["blas.srankk64_gflops"] = gflops(2*float64(m)*float64(m)*nb, l.time(func() { blas.SRankKUpdate(left, top, trail, w) }))
	panel, ppiv := random32(n, nb, 7), make([]int, nb)
	out["blas.spanel_s"] = l.median(func() float64 {
		p := panel.Clone()
		return secs(func() { l.check(blas.Sgetf2(p, ppiv)) })
	})
	a, b := matrix.RandomSystem(n, mix(cfg.Seed, 103, 0))
	a32, piv := a.ToDense32(), make([]int, n)
	out["blas.sgetrf_s"] = l.median(func() float64 {
		f := a32.Clone()
		return secs(func() { l.check(blas.Sgetrf(f, piv, nb, w)) })
	})

	opts := lu.Options{NB: nb, Workers: w}
	out["lu.mixed_s"] = l.time(func() {
		_, _, rep, err := lu.SolveMixed(a, b, opts)
		l.check(err)
		out["lu.refine_iters"] = float64(rep.Iterations)
	})
	out["lu.mixed_speedup"] = l.time(func() {
		_, _, err := lu.Solve(a, b, opts, lu.Sequential)
		l.check(err)
	}) / out["lu.mixed_s"]
	out["hpl.mixed_speedup"] = l.median(func() float64 {
		r, err := hpl.SolveDistributed2DMode(n, nb, 2, 2, mix(cfg.Seed, 104, 0), hpl.LookaheadPipelined)
		l.check(err)
		return r.Seconds
	}) / out["hpl.mixed_timed_s"]
}
