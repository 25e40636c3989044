package offload

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/pack"
	"phihpl/internal/testutil"
)

// packedReference is pack.Gemm's c0 + a·b on the operands Compute packs:
// the result every worker mix and every degraded run must equal bit for
// bit.
func packedReference(a, b, c0 *matrix.Dense) *matrix.Dense {
	ref := c0.Clone()
	pack.Gemm(pack.PackA(a, 0), pack.PackB(b), ref, 1)
	return ref
}

// checkBitwise fails unless got is bitwise pack.Gemm's result and, for a
// product of one K-block, blas.DgemmPacked's.
func checkBitwise(t *testing.T, what string, a, b, c0, got *matrix.Dense) {
	t.Helper()
	if ref := packedReference(a, b, c0); !matrix.Equal(got, ref) {
		t.Errorf("%s: differs from pack.Gemm (maxdiff %g)", what, matrix.MaxDiff(got, ref))
	}
	if a.Cols <= 384 {
		ref := c0.Clone()
		blas.DgemmPacked(false, false, 1, a, b, 1, ref, 2)
		if !matrix.Equal(got, ref) {
			t.Errorf("%s: differs from blas.DgemmPacked (maxdiff %g)", what, matrix.MaxDiff(got, ref))
		}
	}
}

// numTiles is the engine's tile count for an m×n C under cfg in FP64.
func numTiles(m, n int, cfg RealConfig) int {
	cfg = cfg.withDefaults(m, n)
	p := planMicro(m, n, cfg.Mt, cfg.Nt, pack.DefaultTileM, pack.TileN)
	return p.NumTiles()
}

func TestPlanTilesMergesPartials(t *testing.T) {
	p := PlanTiles(100, 70, 30, 32)
	// 100/30 = 3 full rows, remainder 10 merged into the last -> sizes 30,30,40.
	if p.Rows() != 3 || p.RowSize[2] != 40 {
		t.Errorf("rows = %d, sizes = %v", p.Rows(), p.RowSize)
	}
	// 70/32 = 2 full cols, remainder 6 merged -> 32, 38.
	if p.Cols() != 2 || p.ColSize[1] != 38 {
		t.Errorf("cols = %d, sizes = %v", p.Cols(), p.ColSize)
	}
	if p.NumTiles() != 6 {
		t.Errorf("tiles = %d", p.NumTiles())
	}
	// Coverage: tiles exactly partition the matrix.
	covered := 0
	for i := 0; i < p.NumTiles(); i++ {
		_, _, r, c := p.Tile(i)
		covered += r * c
	}
	if covered != 100*70 {
		t.Errorf("covered %d cells of %d", covered, 7000)
	}
}

func TestPlanTilesColumnMajorOrder(t *testing.T) {
	p := PlanTiles(60, 60, 30, 30) // 2x2 grid
	r0, c0, _, _ := p.Tile(0)
	r1, c1, _, _ := p.Tile(1)
	r2, c2, _, _ := p.Tile(2)
	if r0 != 0 || c0 != 0 || r1 != 30 || c1 != 0 || r2 != 0 || c2 != 30 {
		t.Errorf("column-major order broken: (%d,%d) (%d,%d) (%d,%d)", r0, c0, r1, c1, r2, c2)
	}
}

func TestPlanTilesEdgeCases(t *testing.T) {
	// Tile larger than the matrix: single tile.
	p := PlanTiles(10, 10, 100, 100)
	if p.NumTiles() != 1 {
		t.Errorf("tiles = %d", p.NumTiles())
	}
	_, _, r, c := p.Tile(0)
	if r != 10 || c != 10 {
		t.Errorf("tile = %dx%d", r, c)
	}
	// Exact division: no merging.
	p = PlanTiles(90, 90, 30, 30)
	if p.NumTiles() != 9 || p.RowSize[2] != 30 {
		t.Errorf("exact division broken")
	}
}

func TestStealQueueMeetsInMiddle(t *testing.T) {
	q := newStealQueue(5)
	var fronts, backs []int
	for {
		i, ok := q.take(true)
		if !ok {
			break
		}
		fronts = append(fronts, i)
		j, ok := q.take(false)
		if !ok {
			break
		}
		backs = append(backs, j)
	}
	if len(fronts)+len(backs) != 5 {
		t.Fatalf("claimed %d + %d tiles, want 5", len(fronts), len(backs))
	}
	seen := map[int]bool{}
	for _, i := range append(fronts, backs...) {
		if seen[i] {
			t.Fatalf("tile %d claimed twice", i)
		}
		seen[i] = true
	}
}

func TestComputeMatchesDgemm(t *testing.T) {
	defer testutil.NoLeaks(t)()
	m, k, n := 95, 40, 83
	a := matrix.RandomGeneral(m, k, 1)
	b := matrix.RandomGeneral(k, n, 2)
	c0 := matrix.RandomGeneral(m, n, 3)

	want := c0.Clone()
	blas.Dgemm(false, false, 1, a, b, 1, want)

	for _, cfg := range []RealConfig{
		{Mt: 32, Nt: 32, CardWorkers: 1, HostWorkers: 0},
		{Mt: 32, Nt: 32, CardWorkers: 0, HostWorkers: 1},
		{Mt: 32, Nt: 32, CardWorkers: 2, HostWorkers: 2},
		{Mt: 20, Nt: 50, CardWorkers: 1, HostWorkers: 3},
	} {
		got := c0.Clone()
		stats := Compute(a, b, got, cfg)
		if d := matrix.MaxDiff(got, want); d > 1e-11 {
			t.Errorf("cfg=%+v: maxdiff %g", cfg, d)
		}
		checkBitwise(t, fmt.Sprintf("cfg=%+v", cfg), a, b, c0, got)
		if stats.CardTiles+stats.HostTiles != numTiles(m, n, cfg) {
			t.Errorf("cfg=%+v: tile accounting wrong: %+v", cfg, stats)
		}
	}
}

func TestComputeWorkerExclusivity(t *testing.T) {
	// Card-only and host-only configurations attribute every tile to the
	// right side. (Which side wins contested tiles in a mixed run is
	// scheduler-dependent; the meet-in-the-middle queue itself is covered
	// by TestStealQueueMeetsInMiddle.)
	a := matrix.RandomGeneral(64, 16, 4)
	b := matrix.RandomGeneral(16, 64, 5)
	c := matrix.NewDense(64, 64)
	// 16×16 rounds up to one 30×8 micro-tile by two: a 3×4 grid.
	nt := numTiles(64, 64, RealConfig{Mt: 16, Nt: 16})
	if nt != 12 {
		t.Fatalf("tile count = %d, want 12", nt)
	}
	stats := Compute(a, b, c, RealConfig{Mt: 16, Nt: 16, CardWorkers: 3, HostWorkers: 0})
	if stats.CardTiles != nt || stats.HostTiles != 0 {
		t.Errorf("card-only split wrong: %+v", stats)
	}
	c.Zero()
	stats = Compute(a, b, c, RealConfig{Mt: 16, Nt: 16, CardWorkers: 0, HostWorkers: 3})
	if stats.HostTiles != nt || stats.CardTiles != 0 {
		t.Errorf("host-only split wrong: %+v", stats)
	}
}

func TestComputeDefaultsAndPanics(t *testing.T) {
	a := matrix.RandomGeneral(10, 4, 6)
	b := matrix.RandomGeneral(4, 10, 7)
	c := matrix.NewDense(10, 10)
	// All-zero worker config defaults to one card worker.
	stats := Compute(a, b, c, RealConfig{})
	if stats.CardTiles == 0 {
		t.Errorf("default config should use the card: %+v", stats)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	Compute(a, b, matrix.NewDense(9, 10), RealConfig{})
}

// Property: the offload result equals plain DGEMM to round-off and the
// packed GEMM bit for bit, for random shapes and worker mixes.
func TestComputeEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, mR, nR, kR, wR uint8) bool {
		m := 8 + int(mR)%60
		n := 8 + int(nR)%60
		k := 1 + int(kR)%24
		cw := int(wR) % 3
		hw := int(wR>>4) % 3
		a := matrix.RandomGeneral(m, k, seed)
		b := matrix.RandomGeneral(k, n, seed^7)
		got := matrix.NewDense(m, n)
		Compute(a, b, got, RealConfig{Mt: 16, Nt: 16, CardWorkers: cw, HostWorkers: hw})
		want := matrix.NewDense(m, n)
		blas.Dgemm(false, false, 1, a, b, 1, want)
		checkBitwise(t, fmt.Sprintf("%dx%dx%d card=%d host=%d", m, k, n, cw, hw), a, b, matrix.NewDense(m, n), got)
		return matrix.MaxDiff(got, want) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// --- Figure 11 ---------------------------------------------------------

func TestFigure11SingleCard(t *testing.T) {
	// "For 82K matrix it achieves ≈917 GFLOPS, resulting in 85.4%
	// efficiency."
	r := Simulate(82000, 82000, SimConfig{Cards: 1})
	if math.Abs(r.GFLOPS-917) > 12 {
		t.Errorf("1-card @82K = %.1f GFLOPS, paper ≈917", r.GFLOPS)
	}
	if math.Abs(r.Eff-0.854) > 0.01 {
		t.Errorf("1-card eff = %.3f, paper 0.854", r.Eff)
	}
}

func TestFigure11DualCard(t *testing.T) {
	// "The achieved peak ofﬂoad DGEMM performance for dual Knights Corner
	// systems is 1785 GFLOPS, resulting in 83% efficiency."
	r := Simulate(82000, 82000, SimConfig{Cards: 2})
	if math.Abs(r.GFLOPS-1785) > 25 {
		t.Errorf("2-card @82K = %.1f GFLOPS, paper 1785", r.GFLOPS)
	}
	if math.Abs(r.Eff-0.83) > 0.012 {
		t.Errorf("2-card eff = %.3f, paper 0.83", r.Eff)
	}
}

func TestFigure11DegradationShape(t *testing.T) {
	// Efficiency degrades slowly for one card and much faster for two
	// (each card solves half the problem, so fixed exposure looms larger).
	sizes := []int{10000, 20000, 40000, 82000}
	prev1, prev2 := 0.0, 0.0
	for _, m := range sizes {
		e1 := Simulate(m, m, SimConfig{Cards: 1}).Eff
		e2 := Simulate(m, m, SimConfig{Cards: 2}).Eff
		if e1 <= prev1 || e2 <= prev2 {
			t.Errorf("efficiency must rise with size at %d", m)
		}
		prev1, prev2 = e1, e2
	}
	drop1 := Simulate(82000, 82000, SimConfig{Cards: 1}).Eff - Simulate(10000, 10000, SimConfig{Cards: 1}).Eff
	drop2 := Simulate(82000, 82000, SimConfig{Cards: 2}).Eff - Simulate(10000, 10000, SimConfig{Cards: 2}).Eff
	if drop2 <= drop1 {
		t.Errorf("dual-card efficiency must degrade faster: Δ1=%.3f Δ2=%.3f", drop1, drop2)
	}
}

func TestTileSelectionAblation(t *testing.T) {
	// Run-time tile selection must beat a deliberately bad fixed tile.
	auto := Simulate(40000, 40000, SimConfig{Cards: 1})
	forced := Simulate(40000, 40000, SimConfig{Cards: 1, ForceTile: 1200})
	if auto.GFLOPS <= forced.GFLOPS {
		t.Errorf("tile selection (%.1f, tile %d) should beat forced 1200 (%.1f)",
			auto.GFLOPS, auto.Mt, forced.GFLOPS)
	}
}

func TestSimulateDeterministicAndDegenerate(t *testing.T) {
	a := Simulate(20000, 20000, SimConfig{Cards: 1})
	b := Simulate(20000, 20000, SimConfig{Cards: 1})
	if a != b {
		t.Error("simulation must be deterministic")
	}
	if r := Simulate(0, 100, SimConfig{}); r.GFLOPS != 0 {
		t.Errorf("degenerate m should give zero result, got %+v", r)
	}
	if SteadyRate(20000, 20000, SimConfig{Cards: 1}) != a.GFLOPS {
		t.Error("SteadyRate should match Simulate")
	}
}

func TestLargerKtHelps(t *testing.T) {
	// Deeper panels amortize transfers: Kt=1200 must not lose to Kt=600
	// in efficiency terms at moderate sizes.
	e600 := Simulate(30000, 30000, SimConfig{Cards: 1, Kt: 600}).Eff
	e1200 := Simulate(30000, 30000, SimConfig{Cards: 1, Kt: 1200}).Eff
	if e1200 < e600 {
		t.Errorf("Kt=1200 eff %.3f should be >= Kt=600 eff %.3f", e1200, e600)
	}
}

// The engine is generic: on FP32 operands, whatever the worker mix, it is
// bitwise pack.Gemm[float32] on the same packed operands, and with a
// single-K-block A and B bitwise the FP32 packed GEMM.
func TestComputePackedFP32MatchesPackedGemm(t *testing.T) {
	defer testutil.NoLeaks(t)()
	m, k, n := 77, 40, 70
	a := matrix.RandomGeneral(m, k, 101).ToDense32()
	b := matrix.RandomGeneral(k, n, 102).ToDense32()
	c0 := matrix.RandomGeneral(m, n, 103).ToDense32()
	pa, pb := pack.PackA(a, 0), pack.PackB(b)
	want := c0.Clone()
	pack.Gemm(pa, pb, want, 1)
	viaBlas := c0.Clone()
	blas.SgemmPacked(false, false, 1, a, b, 1, viaBlas, 2)
	if !matrix.Equal(want, viaBlas) {
		t.Fatal("pack.Gemm and blas.SgemmPacked disagree on one K-block")
	}
	for _, cfg := range []RealConfig{
		{Mt: 32, Nt: 16, CardWorkers: 1},
		{Mt: 32, Nt: 16, HostWorkers: 1},
		{Mt: 40, Nt: 20, CardWorkers: 2, HostWorkers: 2},
	} {
		got := c0.Clone()
		stats, err := ComputePacked(context.Background(), pa, pb, got, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want) {
			t.Errorf("cfg=%+v: differs from pack.Gemm (maxdiff %g)", cfg, matrix.MaxDiff(got, want))
		}
		p := planMicro(m, n, cfg.Mt, cfg.Nt, pack.DefaultTileM32, pack.TileN32)
		if stats.CardTiles+stats.HostTiles != p.NumTiles() {
			t.Errorf("cfg=%+v: tile accounting wrong: %+v over %d tiles", cfg, stats, p.NumTiles())
		}
	}
}
