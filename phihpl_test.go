package phihpl

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSolveAllSchedulers(t *testing.T) {
	var ref []float64
	for _, s := range []Scheduler{Sequential, StaticLookahead, DynamicDAG} {
		res, err := Solve(120, s, 24, 4, 9)
		if err != nil {
			t.Fatalf("scheduler %v: %v", s, err)
		}
		if !res.Passed {
			t.Errorf("scheduler %v: residual %g", s, res.Residual)
		}
		if ref == nil {
			ref = res.X
			continue
		}
		for i := range ref {
			if res.X[i] != ref[i] {
				t.Fatalf("scheduler %v: solution differs at %d", s, i)
			}
		}
	}
}

func TestSolveMixedPrecisionFacade(t *testing.T) {
	mixed, err := Run(context.Background(), Spec{N: 160, NB: 32, Workers: 2, Seed: 9, Precision: PrecisionMixed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mixed.Passed {
		t.Errorf("mixed residual %g fails the verdict", mixed.Residual)
	}
	if mixed.Refine == nil {
		t.Fatal("mixed solve must carry a refinement report")
	}
	if mixed.Refine.FellBack || mixed.Refine.Reason != FallbackNone {
		t.Errorf("well-conditioned system fell back: %v", mixed.Refine.Reason)
	}
	if mixed.Refine.Iterations < 1 {
		t.Error("expected at least one refinement iteration")
	}

	// fp64 mode routes to the classical path: no report, same verdict.
	plain, err := Run(context.Background(), Spec{N: 160, NB: 32, Workers: 2, Seed: 9, Precision: PrecisionFP64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Passed || plain.Refine != nil {
		t.Errorf("fp64 mode: passed=%v refine=%v", plain.Passed, plain.Refine)
	}

	// Round-trippable flag vocabulary at the facade.
	for _, s := range []string{"fp64", "mixed"} {
		m, err := ParsePrecisionMode(s)
		if err != nil || m.String() != s {
			t.Errorf("ParsePrecisionMode(%q) = %v, %v", s, m, err)
		}
	}
}

func TestSolveDistributedFacade(t *testing.T) {
	res, err := Run(context.Background(), Spec{Mode: ModeDist2D, N: 90, NB: 16, P: 1, Q: 3, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || res.N != 90 {
		t.Errorf("bad result: %+v", res)
	}
	viaCtx, err := SolveDistributed2DPrecisionCtx(context.Background(), 90, 16, 1, 3, 5, LookaheadPipelined, PrecisionFP64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || viaCtx.Seconds <= 0 {
		t.Errorf("timed phase not reported: Seconds = %g, via the wrapper %g", res.Seconds, viaCtx.Seconds)
	}
}

func TestSimFacades(t *testing.T) {
	if g, e := NativeLinpackSim(30000); g < 800 || e < 0.75 {
		t.Errorf("native sim: %v GF %v eff", g, e)
	}
	if g, _ := NativeLinpackStaticSim(30000); g < 750 {
		t.Errorf("static sim: %v GF", g)
	}
	if g, e := OffloadDGEMMSim(82000, 82000, 1); g < 900 || e < 0.84 {
		t.Errorf("offload sim: %v GF %v eff", g, e)
	}
	r := HybridHPLSim(HybridConfig{N: 84000, Cards: 1, Lookahead: LookaheadPipelined})
	if r.TFLOPS < 1.0 {
		t.Errorf("hybrid sim: %v TF", r.TFLOPS)
	}
	if n := MaxProblemSize(1, 64, 1200); n < 80000 || n > 90000 {
		t.Errorf("MaxProblemSize: %d", n)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 11 {
		t.Fatalf("expected 11 experiments, got %d", len(exps))
	}
	for _, e := range exps {
		if FindExperiment(e.ID) == nil {
			t.Errorf("FindExperiment(%q) failed", e.ID)
		}
	}
	if FindExperiment("nope") != nil {
		t.Error("unknown id should be nil")
	}
}

// The fast experiment runners must produce well-formed tables; the heavy
// ones (fig6/fig9/table3) are exercised by the benchmarks.
func TestExperimentOutputs(t *testing.T) {
	for id, want := range map[string][]string{
		"table1": {"Knights Corner", "Sandy Bridge EP", "1074"},
		"table2": {"300", "944", "DGEMM"},
		"fig4":   {"28000", "pack"},
		"fig7":   {"legend:", "DGETRF", "dynamic"},
		"fig11":  {"82000", "2card"},
	} {
		out := FindExperiment(id).Run()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", id, w, out)
			}
		}
	}
}

func TestTable3Output(t *testing.T) {
	if testing.Short() {
		t.Skip("table3 simulates 15 cluster configurations")
	}
	out := Table3()
	if strings.Count(out, "\n") < 16 {
		t.Errorf("table3 should have 15 rows + header:\n%s", out)
	}
	for _, w := range []string{"pipeline, 1 card, 128GB", "825K", "10"} {
		if !strings.Contains(out, w) {
			t.Errorf("table3 missing %q", w)
		}
	}
}

func TestFig6Fig9Outputs(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulations")
	}
	if out := Fig6(); !strings.Contains(out, "30000") || !strings.Contains(out, "dynamic") {
		t.Errorf("fig6 malformed:\n%s", out)
	}
	if out := Fig9(); !strings.Contains(out, "saved%") || !strings.Contains(out, "pipelined") {
		t.Errorf("fig9 malformed:\n%s", out)
	}
}

func TestFacade2DSolvers(t *testing.T) {
	r, err := Run(context.Background(), Spec{Mode: ModeDist2D, N: 72, NB: 12, P: 2, Q: 3, Seed: 8}, nil)
	if err != nil || !r.Passed {
		t.Fatalf("2D: %v passed=%v", err, r.Passed)
	}
	h, err := Run(context.Background(), Spec{Mode: ModeHybrid2D, N: 72, NB: 12, P: 2, Q: 2, Seed: 8}, nil)
	if err != nil || !h.Passed {
		t.Fatalf("hybrid 2D: %v passed=%v", err, h.Passed)
	}
	// Both must agree with the 1D driver's solution to round-off.
	one, err := Run(context.Background(), Spec{Mode: ModeDist2D, N: 72, NB: 12, P: 1, Q: 3, Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one.X {
		if one.X[i] != r.X[i] {
			t.Fatal("1D and 2D solutions must be bitwise identical")
		}
	}
}

func TestVerdictRejectsNonFiniteResidual(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if passed(bad) {
			t.Errorf("residual %v must be FAILED", bad)
		}
	}
	if !passed(0.5) {
		t.Error("residual 0.5 must be PASSED")
	}
	if passed(ResidualThreshold) {
		t.Error("the threshold itself is FAILED (strict bound)")
	}
}

func TestFaultTolerantFacade(t *testing.T) {
	plan, err := ParseFaultPlan("seed=5;drop=0.04;scrub=3@1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(context.Background(), Spec{Mode: ModeFT, N: 64, NB: 16, P: 2, Q: 2, Seed: 11, FT: FTConfig{
		Plan: plan, CheckpointEvery: 2, MaxRestarts: 2, Timeout: 2 * time.Second,
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Errorf("residual %g FAILED under recoverable faults", r.Residual)
	}
	if r.FT == nil {
		t.Fatal("fault-tolerant run must report FT stats")
	}

	// Empty plan: bitwise identical to the plain 2D driver, no recovery.
	clean, err := Run(context.Background(), Spec{Mode: ModeFT, N: 64, NB: 16, P: 2, Q: 2, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(context.Background(), Spec{Mode: ModeDist2D, N: 64, NB: 16, P: 2, Q: 2, Seed: 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.X {
		if clean.X[i] != ref.X[i] {
			t.Fatal("empty fault plan must be bitwise identical to the plain grid")
		}
	}
}

func TestFaultPlanParseErrors(t *testing.T) {
	if _, err := ParseFaultPlan("drop=2.5"); err == nil {
		t.Error("out-of-range probability must be rejected")
	}
	if _, err := ParseFaultPlan("bogus=1"); err == nil {
		t.Error("unknown key must be rejected")
	}
}
