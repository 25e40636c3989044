package main

// The benchmark's vocabulary: workloads, metrics and sizes. BENCHMARK.json
// at the repository root repeats the workload and metric tables for the
// driver; bench_test.go fails when the two disagree.

// workload names, in the order every report uses.
const (
	wlNative = "native"
	wlDist2D = "dist2d"
	wlMixed  = "dist2d_mixed"
	wlServer = "server"
)

var workloads = []string{wlNative, wlDist2D, wlMixed, wlServer}

// metricDef is one row of BENCHMARK.json. Bound is the share of the base
// median by which an end-to-end metric may worsen before -compare calls it
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// The timing bounds are wider than the 10/15/10 % first proposed: between
// sessions the reference box itself moved every timing by up to 14 % with no
// change to the code (native solve_s 0.118 s in one hour, 0.134 s the next),
// and a gate narrower than the machine's own drift fires on nothing. Within
// a session the run-to-run spread stays under 3 %.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"solve_s", "s", lower, 0.15},
	{"solve_p90_s", "s", lower, 0.20},
	{"gflops", "GFLOP/s", higher, 0.15},
	{"peak_rss_mb", "MiB", lower, 0.15},
}

// perLayer lists every layer metric, grouped by the traced child (named
// after the workload whose shapes it replays) that measures it. Every
// -trace 1 run emits all of them, whichever workload it was asked for.
var perLayer = []metricDef{
	// native child: matrix, pack, blas, pool, dag/lu, stream.
	{"matrix.gen_s", "s", lower, 0},
	{"matrix.residual_s", "s", lower, 0},
	{"pack.kernel_gflops", "GFLOP/s", higher, 0},
	{"pack.packA_gbps", "GB/s", higher, 0},
	{"pack.packB_gbps", "GB/s", higher, 0},
	{"blas.dgemm_gflops", "GFLOP/s", higher, 0},
	{"blas.dgemm_pct_kernel", "%", higher, 0},
	{"blas.rankk64_gflops", "GFLOP/s", higher, 0},
	{"blas.panel_s", "s", lower, 0},
	{"blas.panel_rec_s", "s", lower, 0},
	{"blas.trsm_s", "s", lower, 0},
	{"blas.laswp_s", "s", lower, 0},
	{"blas.lusolve_s", "s", lower, 0},
	{"blas.dgemm_allocs", "count", lower, 0},
	{"blas.pack_frac_1024", "frac", lower, 0},
	{"pool.dispatch_us", "us", lower, 0},
	{"pool.regions_per_solve", "count", lower, 0},
	{"lu.factor_s", "s", lower, 0},
	{"lu.factor_seq1_s", "s", lower, 0},
	{"lu.factor_static_s", "s", lower, 0},
	{"lu.factor_gflops", "GFLOP/s", higher, 0},
	{"lu.pct_blas", "%", higher, 0},
	{"lu.tasks_per_solve", "count", lower, 0},
	{"lu.dag_next_calls", "count", lower, 0},
	{"lu.worker_util", "frac", higher, 0},
	{"lu.decomposed_gap_frac", "frac", lower, 0},
	{"stream.triad_gbps", "GB/s", higher, 0},
	{"trace.overhead_frac.native", "frac", lower, 0},

	// dist2d child: thin-k blas, cluster, hpl, offload.
	{"blas.rankk32_gflops", "GFLOP/s", higher, 0},
	{"blas.prepack32_s", "s", lower, 0},
	{"blas.pack_frac_k32", "frac", lower, 0},
	{"cluster.pingpong_us", "us", lower, 0},
	{"cluster.send_gbps", "GB/s", higher, 0},
	{"cluster.bcast_us", "us", lower, 0},
	{"cluster.barrier_us", "us", lower, 0},
	{"cluster.resends", "count", lower, 0},
	{"hpl.timed_s", "s", lower, 0},
	{"hpl.untimed_frac", "frac", lower, 0},
	{"hpl.phase.panel_s", "s", lower, 0},
	{"hpl.phase.lbcast_s", "s", lower, 0},
	{"hpl.phase.swap_s", "s", lower, 0},
	{"hpl.phase.ubcast_s", "s", lower, 0},
	{"hpl.phase.gemm_s", "s", lower, 0},
	{"hpl.gemm_frac", "frac", higher, 0},
	{"hpl.lookahead_gain", "ratio", higher, 0},
	{"hpl.pct_lu", "%", higher, 0},
	{"offload.gemm_gflops", "GFLOP/s", higher, 0},
	{"trace.overhead_frac.dist2d", "frac", lower, 0},

	// dist2d_mixed child: the FP32 twins and refinement.
	{"pack.kernel32_gflops", "GFLOP/s", higher, 0},
	{"blas.sgemm_gflops", "GFLOP/s", higher, 0},
	{"blas.srankk64_gflops", "GFLOP/s", higher, 0},
	{"blas.spanel_s", "s", lower, 0},
	{"blas.sgetrf_s", "s", lower, 0},
	{"lu.mixed_s", "s", lower, 0},
	{"lu.refine_iters", "count", lower, 0},
	{"lu.mixed_speedup", "ratio", higher, 0},
	{"hpl.mixed_timed_s", "s", lower, 0},
	{"hpl.mixed_speedup", "ratio", higher, 0},
	{"hpl.refine_iters", "count", lower, 0},
	{"trace.overhead_frac.dist2d_mixed", "frac", lower, 0},

	// server child: server, journal, and the n=512 generator.
	{"matrix.gen512_s", "s", lower, 0},
	{"server.submit_us", "us", lower, 0},
	{"server.cache_hit_us", "us", lower, 0},
	{"server.jobs_per_s", "1/s", higher, 0},
	{"server.job_p99_s", "s", lower, 0},
	{"server.queue_wait_us", "us", lower, 0},
	{"server.run_ms", "ms", lower, 0},
	{"server.overhead_ms", "ms", lower, 0},
	{"server.journal_cost_us", "us", lower, 0},
	{"server.recover_ms", "ms", lower, 0},
	{"server.cache_hits", "count", higher, 0},
	{"server.rejected", "count", lower, 0},
	{"journal.append_us", "us", lower, 0},
	{"journal.replay_ms", "ms", lower, 0},
	{"journal.compact_ms", "ms", lower, 0},
	{"journal.fsyncs_per_job", "count", lower, 0},
	{"trace.overhead_frac.server", "frac", lower, 0},
}

// sizing fixes how much work a run does. Ops == 0 means the timed window is
// a wall-clock share of -seconds; the smoke size counts operations instead so
// the test is short on any machine.
type sizing struct {
	N, ServerN       int // matrix order: library workloads, server jobs
	Gemm             int // order of the square GEMM replays
	Children         int // child processes per run; setup_s is their median
	Warm, ServerWarm int // untimed operations per child (per client on server)
	Ops, ServerOps   int // timed operations per child (per client on server)
	TraceOps         int // traced operations, and as many untraced, interleaved
	TraceServerOps   int // requests of the traced server pass, both clients together
	Reps             int // samples of each layer replay
	JournalRecords   int // records in the journal replay file
	TriadCapMiB      int // ceiling on one array of the stream triad
}

// runSeconds is the timed window of one run; BENCHMARK.json's run_seconds.
const runSeconds = 20

// n=1536, not the 2048 first probed: 92 driver runs must fit in 3420 s, which
// leaves a 20 s window, and at 2048 dist2d gets fewer than 100 samples in it.
var (
	fullSize = sizing{N: 1536, ServerN: 512, Gemm: 1024, Children: 5, Warm: 3, ServerWarm: 5,
		TraceOps: 20, TraceServerOps: 400, Reps: 7, JournalRecords: 10000, TriadCapMiB: 256}
	smokeSize = sizing{N: 256, ServerN: 256, Gemm: 256, Children: 1, Warm: 1, ServerWarm: 2,
		Ops: 5, ServerOps: 20, TraceOps: 3, TraceServerOps: 40, Reps: 2, JournalRecords: 500, TriadCapMiB: 8}
)
