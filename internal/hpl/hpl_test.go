package hpl

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/trace"
)

// --- functional distributed solver -------------------------------------

func TestSolveDistributedResidual(t *testing.T) {
	for _, tc := range []struct{ n, nb, ranks int }{
		{60, 12, 1},
		{60, 12, 3},
		{100, 16, 4},
		{131, 24, 5}, // ragged last panel, uneven panel ownership
	} {
		r, err := Solve(context.Background(), Grid{N: tc.n, NB: tc.nb, P: 1, Q: tc.ranks, Seed: 42}, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if r.Residual > matrix.ResidualThreshold {
			t.Errorf("%+v: residual %g FAILED", tc, r.Residual)
		}
		if len(r.X) != tc.n || r.Ranks != tc.ranks {
			t.Errorf("%+v: bad result metadata %+v", tc, r)
		}
		if r.Seconds <= 0 {
			t.Errorf("%+v: timed phase not reported (Seconds = %g)", tc, r.Seconds)
		}
	}
}

func TestSolveDistributedMatchesSequential(t *testing.T) {
	// The distributed solve must produce the same solution as the
	// sequential blocked LU: same pivots, same arithmetic order.
	n, nb := 80, 16
	a, b := matrix.RandomSystem(n, 7)
	lu := a.Clone()
	piv := make([]int, n)
	if err := blas.Dgetrf(lu, piv, nb); err != nil {
		t.Fatal(err)
	}
	want := blas.LUSolve(lu, piv, b)

	r, err := Solve(context.Background(), Grid{N: n, NB: nb, P: 1, Q: 3, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if r.X[i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v (bitwise)", i, r.X[i], want[i])
		}
	}
}

func TestSolveDistributedRankInvariance(t *testing.T) {
	// The answer must not depend on how many ranks share the work.
	base, err := Solve(context.Background(), Grid{N: 64, NB: 8, P: 1, Q: 1, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4, 8} {
		r, err := Solve(context.Background(), Grid{N: 64, NB: 8, P: 1, Q: ranks, Seed: 11}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.X {
			if r.X[i] != base.X[i] {
				t.Fatalf("ranks=%d: x[%d] differs", ranks, i)
			}
		}
	}
}

func TestSolveDistributedErrors(t *testing.T) {
	if _, err := Solve(context.Background(), Grid{N: 0, NB: 4, P: 1, Q: 2, Seed: 1}, nil); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Solve(context.Background(), Grid{N: 10, NB: 4, P: 1, Q: 0, Seed: 1}, nil); err == nil {
		t.Error("ranks=0 should error")
	}
	// nb out of range is clamped, not an error.
	if _, err := Solve(context.Background(), Grid{N: 10, NB: 0, P: 1, Q: 2, Seed: 1}, nil); err != nil {
		t.Errorf("nb=0 should clamp: %v", err)
	}
}

func TestSolveDistributedProperty(t *testing.T) {
	f := func(seed uint64, nR, rR uint8) bool {
		n := 16 + int(nR)%48
		ranks := 1 + int(rR)%5
		r, err := Solve(context.Background(), Grid{N: n, NB: 8, P: 1, Q: ranks, Seed: seed}, nil)
		if err != nil {
			return true // singular random matrix: skip
		}
		return r.Residual < matrix.ResidualThreshold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// --- Table III ----------------------------------------------------------

// tableIII rows: paper's achieved TFLOPS and efficiency.
var tableIII = []struct {
	name   string
	cfg    SimConfig
	tflops float64
	eff    float64
}{
	{"cpu-1node", SimConfig{N: 84000, P: 1, Q: 1, Cards: 0}, 0.29, 86.4},
	{"cpu-2x2", SimConfig{N: 168000, P: 2, Q: 2, Cards: 0}, 1.10, 82.8},
	{"1card-basic", SimConfig{N: 84000, P: 1, Q: 1, Cards: 1, Lookahead: LookaheadBasic}, 0.99, 71.0},
	{"1card-pipe", SimConfig{N: 84000, P: 1, Q: 1, Cards: 1, Lookahead: LookaheadPipelined}, 1.12, 79.8},
	{"1card-2x2-basic", SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: LookaheadBasic}, 3.88, 69.1},
	{"1card-2x2-pipe", SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: LookaheadPipelined}, 4.36, 77.6},
	{"1card-10x10-basic", SimConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: LookaheadBasic}, 95.2, 67.7},
	{"1card-10x10-pipe", SimConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: LookaheadPipelined}, 107.0, 76.1},
	{"2card-basic", SimConfig{N: 84000, P: 1, Q: 1, Cards: 2, Lookahead: LookaheadBasic}, 1.66, 68.2},
	{"2card-pipe", SimConfig{N: 84000, P: 1, Q: 1, Cards: 2, Lookahead: LookaheadPipelined}, 1.87, 76.6},
	{"2card-2x2-basic", SimConfig{N: 166800, P: 2, Q: 2, Cards: 2, Lookahead: LookaheadBasic}, 6.36, 65.0},
	{"2card-2x2-pipe", SimConfig{N: 166800, P: 2, Q: 2, Cards: 2, Lookahead: LookaheadPipelined}, 7.15, 73.1},
	{"2card-10x10-basic", SimConfig{N: 822000, P: 10, Q: 10, Cards: 2, Lookahead: LookaheadBasic}, 156.5, 64.0},
	{"2card-10x10-pipe", SimConfig{N: 822000, P: 10, Q: 10, Cards: 2, Lookahead: LookaheadPipelined}, 175.8, 71.9},
	{"1card-128GB-pipe", SimConfig{N: 242400, P: 2, Q: 2, Cards: 1, HostMemGiB: 128, Lookahead: LookaheadPipelined}, 4.42, 79.6},
}

func TestTableIIIWithinTolerance(t *testing.T) {
	// The substrate is a simulator, not the authors' cluster; the bar is
	// the published shape within a few efficiency points.
	for _, row := range tableIII {
		r := Simulate(row.cfg)
		if math.Abs(r.Eff*100-row.eff) > 3.5 {
			t.Errorf("%s: eff = %.1f%%, paper %.1f%%", row.name, r.Eff*100, row.eff)
		}
		if math.Abs(r.TFLOPS-row.tflops)/row.tflops > 0.07 {
			t.Errorf("%s: %.2f TFLOPS, paper %.2f", row.name, r.TFLOPS, row.tflops)
		}
	}
}

func TestPipelineImproves7to9Percent(t *testing.T) {
	// "pipelined look-ahead improves hybrid HPL efficiency by 7%-9%".
	for _, pq := range []struct{ n, p, q int }{
		{84000, 1, 1}, {168000, 2, 2}, {825600, 10, 10},
	} {
		basic := Simulate(SimConfig{N: pq.n, P: pq.p, Q: pq.q, Cards: 1, Lookahead: LookaheadBasic})
		pipe := Simulate(SimConfig{N: pq.n, P: pq.p, Q: pq.q, Cards: 1, Lookahead: LookaheadPipelined})
		gain := (pipe.Eff - basic.Eff) * 100
		if gain < 6 || gain > 10.5 {
			t.Errorf("%dx%d: pipeline gain %.1f points, paper 7-9", pq.p, pq.q, gain)
		}
	}
}

func TestHeadline107TFLOPS(t *testing.T) {
	// "scales up to 107 TFLOPS on a 100-node cluster, which corresponds
	// to 76.1% efficiency".
	r := Simulate(SimConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: LookaheadPipelined})
	if math.Abs(r.TFLOPS-107) > 7 {
		t.Errorf("100-node = %.1f TFLOPS, paper 107", r.TFLOPS)
	}
	if math.Abs(r.Eff-0.761) > 0.03 {
		t.Errorf("100-node eff = %.3f, paper 0.761", r.Eff)
	}
}

func TestFigure9IdleFractions(t *testing.T) {
	// Figure 9 (2x2 multi-node, N=84K... the paper plots per-node 84K;
	// Table III's 2x2 at 168K is the same local shape): basic look-ahead
	// leaves the card idle >=13% of the time; pipelining cuts it below ~3%.
	basic := Simulate(SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: LookaheadBasic})
	if basic.CardIdleFrac < 0.11 || basic.CardIdleFrac > 0.18 {
		t.Errorf("basic idle = %.1f%%, paper ≈13%%", basic.CardIdleFrac*100)
	}
	pipe := Simulate(SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: LookaheadPipelined})
	if pipe.CardIdleFrac > 0.045 {
		t.Errorf("pipelined idle = %.1f%%, paper <3%%", pipe.CardIdleFrac*100)
	}
}

func TestFigure9PerIterationTrace(t *testing.T) {
	var basic trace.Recorder
	Simulate(SimConfig{N: 168000, P: 2, Q: 2, Cards: 2, Lookahead: LookaheadBasic, Trace: &basic})
	var pipe trace.Recorder
	Simulate(SimConfig{N: 168000, P: 2, Q: 2, Cards: 2, Lookahead: LookaheadPipelined, Trace: &pipe})

	bIters, pIters := basic.IterTotals(), pipe.IterTotals()
	if len(bIters) < 100 {
		t.Fatalf("expected many iterations, got %d", len(bIters))
	}
	// Figure 9c: the swapping pipeline saves up to ~11% per iteration in
	// the early, most expensive iterations.
	sum := func(m map[string]float64) float64 {
		s := 0.0
		for _, v := range m {
			s += v
		}
		return s
	}
	early := 0
	bT := sum(bIters[early]) - bIters[early]["DGEMM"] // exposed time
	pT := sum(pIters[early]) - pIters[early]["DGEMM"]
	bIter := bIters[early]["DGEMM"] + bT
	saving := (bT - pT) / bIter
	if saving < 0.05 || saving > 0.25 {
		t.Errorf("early-iteration saving = %.1f%%, paper up to ~11%%", saving*100)
	}
	// The exposed regions of the paper appear in the trace.
	for _, name := range []string{"DGEMM", "swap", "DTRSM", "Ubcast"} {
		if basic.Totals()[name] <= 0 {
			t.Errorf("basic trace missing %q region", name)
		}
	}
}

// The trace is each iteration's critical path laid end to end: no two
// spans on one lane overlap, iteration i starts where i−1 ends, and the
// last span ends at the run's Seconds — for every schedule, on one node
// and on Figure 9's 2x2 grid.
func TestSimulateTraceIsTimeline(t *testing.T) {
	for _, cfg := range []SimConfig{
		{N: 84000, Cards: 1},
		{N: 168000, P: 2, Q: 2, Cards: 2},
	} {
		for _, mode := range []LookaheadMode{LookaheadNone, LookaheadBasic, LookaheadPipelined} {
			var rec trace.Recorder
			cfg.Lookahead, cfg.Trace = mode, &rec
			r := Simulate(cfg)
			tol := 1e-9 * r.Seconds
			laneEnd := map[int]float64{}
			iterStart, iterEnd := map[int]float64{}, map[int]float64{}
			for _, s := range rec.Spans() {
				if s.Start < laneEnd[s.Worker]-tol {
					t.Fatalf("%dx%d %v: lane %d %s of iter %d starts at %g, before the lane frees at %g",
						r.Config.P, r.Config.Q, mode, s.Worker, s.Name, s.Iter, s.Start, laneEnd[s.Worker])
				}
				laneEnd[s.Worker] = s.End
				if st, ok := iterStart[s.Iter]; !ok || s.Start < st {
					iterStart[s.Iter] = s.Start
				}
				iterEnd[s.Iter] = max(iterEnd[s.Iter], s.End)
			}
			for i := 1; i < len(iterStart); i++ {
				if math.Abs(iterStart[i]-iterEnd[i-1]) > tol {
					t.Fatalf("%dx%d %v: iter %d starts at %g, iter %d ends at %g",
						r.Config.P, r.Config.Q, mode, i, iterStart[i], i-1, iterEnd[i-1])
				}
			}
			if end := rec.Makespan(); math.Abs(end-r.Seconds) > tol {
				t.Errorf("%dx%d %v: last span ends at %g, run takes %g s", r.Config.P, r.Config.Q, mode, end, r.Seconds)
			}
		}
	}
}

func TestLookaheadOrdering(t *testing.T) {
	// none < basic < pipelined, always.
	for _, cards := range []int{1, 2} {
		none := Simulate(SimConfig{N: 84000, P: 1, Q: 1, Cards: cards, Lookahead: LookaheadNone})
		basic := Simulate(SimConfig{N: 84000, P: 1, Q: 1, Cards: cards, Lookahead: LookaheadBasic})
		pipe := Simulate(SimConfig{N: 84000, P: 1, Q: 1, Cards: cards, Lookahead: LookaheadPipelined})
		if !(none.TFLOPS < basic.TFLOPS && basic.TFLOPS < pipe.TFLOPS) {
			t.Errorf("cards=%d: ordering broken: %.2f %.2f %.2f",
				cards, none.TFLOPS, basic.TFLOPS, pipe.TFLOPS)
		}
	}
}

func TestSecondCardCostsEfficiency(t *testing.T) {
	// "the efficiency loss due to a second Knights Corner card is 4.2%".
	one := Simulate(SimConfig{N: 84000, P: 1, Q: 1, Cards: 1, Lookahead: LookaheadPipelined})
	two := Simulate(SimConfig{N: 84000, P: 1, Q: 1, Cards: 2, Lookahead: LookaheadPipelined})
	drop := (one.Eff - two.Eff) * 100
	if drop < 2 || drop > 6.5 {
		t.Errorf("second-card efficiency drop = %.1f points, paper ≈4.2", drop)
	}
	// But raw TFLOPS must still go up substantially.
	if two.TFLOPS < 1.5*one.TFLOPS {
		t.Errorf("second card should scale throughput: %.2f vs %.2f", two.TFLOPS, one.TFLOPS)
	}
}

func TestMoreMemoryHelps(t *testing.T) {
	// Table III's last section: doubling host memory (larger N) raises
	// cluster efficiency.
	small := Simulate(SimConfig{N: 166800, P: 2, Q: 2, Cards: 1, Lookahead: LookaheadPipelined})
	big := Simulate(SimConfig{N: 242400, P: 2, Q: 2, Cards: 1, HostMemGiB: 128, Lookahead: LookaheadPipelined})
	if big.Eff <= small.Eff {
		t.Errorf("128 GB (N=242K) eff %.3f should beat 64 GB (N=167K) eff %.3f", big.Eff, small.Eff)
	}
}

func TestMaxProblemSize(t *testing.T) {
	// 100 nodes x 64 GiB at 85% usable supports roughly the paper's 825K.
	n := MaxProblemSize(100, 64, 1200)
	if n < 800000 || n > 880000 {
		t.Errorf("MaxProblemSize(100, 64) = %d, want ~825-860K", n)
	}
	if n%1200 != 0 {
		t.Errorf("N must be a multiple of NB, got %d", n)
	}
	// One node, 64 GiB: ~84K (Table III's single-node N).
	n1 := MaxProblemSize(1, 64, 1200)
	if n1 < 80000 || n1 > 90000 {
		t.Errorf("MaxProblemSize(1, 64) = %d, want ~84K", n1)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimConfig{N: 84000, P: 1, Q: 1, Cards: 1, Lookahead: LookaheadPipelined}
	if Simulate(cfg) != Simulate(cfg) {
		t.Error("simulation must be deterministic")
	}
}

func TestModeString(t *testing.T) {
	if LookaheadNone.String() != "none" || LookaheadBasic.String() != "basic" || LookaheadPipelined.String() != "pipelined" {
		t.Error("mode names")
	}
}

func TestDefaults(t *testing.T) {
	c := SimConfig{N: 1000}.withDefaults()
	if c.NB != 1200 || c.P != 1 || c.Q != 1 || c.HostMemGiB != 64 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestSimulateFTOverheadPricing(t *testing.T) {
	base := Simulate(SimConfig{N: 84000, Cards: 1, Lookahead: LookaheadPipelined})
	if base.FTOverheadFrac != 0 {
		t.Fatalf("FT pricing off must report zero overhead, got %g", base.FTOverheadFrac)
	}
	ft := Simulate(SimConfig{N: 84000, Cards: 1, Lookahead: LookaheadPipelined,
		FTLossRate: 1e-3, FTCheckpointEvery: 8})
	if ft.FTOverheadFrac <= 0 || ft.FTOverheadFrac >= 0.5 {
		t.Fatalf("FT overhead fraction %g out of the plausible band", ft.FTOverheadFrac)
	}
	if ft.Seconds <= base.Seconds || ft.Eff >= base.Eff {
		t.Errorf("resilience must cost time: %.2fs/%.1f%% vs base %.2fs/%.1f%%",
			ft.Seconds, ft.Eff*100, base.Seconds, base.Eff*100)
	}
	// More loss -> more resend traffic -> strictly more overhead.
	lossy := Simulate(SimConfig{N: 84000, Cards: 1, Lookahead: LookaheadPipelined,
		FTLossRate: 1e-2, FTCheckpointEvery: 8})
	if lossy.FTOverheadFrac <= ft.FTOverheadFrac {
		t.Errorf("overhead must grow with loss rate: %g vs %g", lossy.FTOverheadFrac, ft.FTOverheadFrac)
	}
	// Tighter checkpoint period -> more write-backs -> more overhead.
	tight := Simulate(SimConfig{N: 84000, Cards: 1, Lookahead: LookaheadPipelined,
		FTLossRate: 1e-3, FTCheckpointEvery: 2})
	if tight.FTOverheadFrac <= ft.FTOverheadFrac {
		t.Errorf("overhead must grow with checkpoint frequency: %g vs %g", tight.FTOverheadFrac, ft.FTOverheadFrac)
	}
}
