package lu

import (
	"context"
	"maps"
	"math"
	"slices"
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
	"phihpl/internal/pack"
	"phihpl/internal/trace"
)

// gradedSystem builds an increasingly ill-conditioned system by scaling
// row i of a random matrix by decade^(i/n), so refinement has something
// to recover.
func gradedSystem(n int, decades float64, seed uint64) (*matrix.Dense, []float64) {
	a, b := matrix.RandomSystem(n, seed)
	for i := 0; i < n; i++ {
		s := math.Pow(10, -decades*float64(i)/float64(n))
		row := a.Row(i)
		for j := range row {
			row[j] *= s
		}
		b[i] *= s
	}
	return a, b
}

// forceScalarKernels pins both micro-kernels (FP32 and FP64) to the
// portable scalar path for the duration of a test, so golden values hold
// on every platform regardless of which vector kernels the CPU offers —
// the FP64 fallback golden in particular re-runs the full FP64 packed
// path, whose bits depend on the FP64 kernel.
func forceScalarKernels(t *testing.T) {
	t.Helper()
	prev32, prev64 := pack.DisableVectorKernel32, pack.DisableVectorKernel
	pack.DisableVectorKernel32 = true
	pack.DisableVectorKernel = true
	t.Cleanup(func() {
		pack.DisableVectorKernel32 = prev32
		pack.DisableVectorKernel = prev64
	})
}

// nearDepSystem builds a system whose last row is a linear combination of
// the first three rows plus tau-scale noise: for tau below the single-
// precision resolution of the row entries the dependency is invisible to
// FP32, the factors are useless in that direction, and refinement must
// stall — the deliberate trigger for the FP64 fallback.
func nearDepSystem(n int, tau float64, seed uint64) (*matrix.Dense, []float64) {
	a, b := matrix.RandomSystem(n, seed)
	last := a.Row(n - 1)
	for j := range last {
		last[j] = 0
	}
	for i := 0; i < 3; i++ {
		row := a.Row(i)
		for j := range last {
			last[j] += row[j] / 3
		}
	}
	noise := matrix.NewPRNG(seed ^ 0xabcdef)
	for j := range last {
		last[j] += tau * (noise.Float64() - 0.5)
	}
	return a, b
}

// TestSolveMixedGoldenResiduals is the satellite-3 golden table: with the
// scalar FP32 kernel (bit-identical on every platform) the mixed solver
// is fully deterministic, so the refinement-iteration counts and final
// scaled residuals over graded condition numbers are pinned exactly.
// The last row is the deliberately ill-conditioned case — a row
// dependency below FP32 resolution — which must stall refinement and
// fall back to FP64 with a typed report.
func TestSolveMixedGoldenResiduals(t *testing.T) {
	forceScalarKernels(t)
	const n, seed = 160, 42
	golden := []struct {
		decades  float64
		iters    int
		residual float64
	}{
		{0, 2, 0.0008445088614506299},
		{3, 2, 0.00079872877232569587},
		{6, 2, 0.0002604551670923258},
		{9, 2, 0.00049888359326950599},
		{12, 2, 0.00048334391140113502},
	}
	for _, g := range golden {
		a, b := gradedSystem(n, g.decades, seed)
		x, res, rep, err := SolveMixed(a, b, Options{NB: 32, Workers: 2})
		if err != nil {
			t.Fatalf("decades=%g: %v", g.decades, err)
		}
		if rep.FellBack || rep.Reason != FallbackNone {
			t.Fatalf("decades=%g: unexpected fallback (%v)", g.decades, rep.Reason)
		}
		if rep.Iterations != g.iters {
			t.Errorf("decades=%g: %d refinement iters, golden %d", g.decades, rep.Iterations, g.iters)
		}
		if rel := math.Abs(res-g.residual) / g.residual; rel > 1e-12 {
			t.Errorf("decades=%g: residual %.17g, golden %.17g (rel %g)", g.decades, res, g.residual, rel)
		}
		if rep.Residual != res || len(x) != n {
			t.Errorf("decades=%g: report/residual mismatch", g.decades)
		}
	}

	// Ill-conditioned golden: dependency at tau = 1e-9 ≪ eps32·‖row‖.
	a, b := nearDepSystem(96, 1e-9, 7)
	_, res, rep, err := SolveMixed(a, b, Options{NB: 32, Workers: 2})
	if err != nil {
		t.Fatalf("neardep: %v", err)
	}
	if !rep.FellBack || rep.Reason != FallbackStalled {
		t.Fatalf("neardep: FellBack=%v Reason=%v, want stalled FP64 fallback", rep.FellBack, rep.Reason)
	}
	if rep.Iterations != 2 {
		t.Errorf("neardep: stalled after %d iters, golden 2", rep.Iterations)
	}
	const goldenRes = 0.0074527162129245936
	if rel := math.Abs(res-goldenRes) / goldenRes; rel > 1e-12 {
		t.Errorf("neardep: fallback residual %.17g, golden %.17g", res, goldenRes)
	}
	if res >= matrix.ResidualThreshold {
		t.Errorf("neardep: FP64 fallback residual %g fails the HPL bar", res)
	}
}

// TestSolveMixedActiveKernel runs the same graded systems through
// whichever micro-kernel the CPU actually uses (the configuration the
// benchmark rows are produced with) and asserts the portable contract:
// convergence without fallback, a handful of iterations, and a residual
// passing the HPL bar.
func TestSolveMixedActiveKernel(t *testing.T) {
	for _, decades := range []float64{0, 6, 12} {
		a, b := gradedSystem(160, decades, 42)
		_, res, rep, err := SolveMixed(a, b, Options{NB: 32, Workers: 2})
		if err != nil {
			t.Fatalf("decades=%g: %v", decades, err)
		}
		if rep.FellBack {
			t.Fatalf("decades=%g: unexpected fallback (%v)", decades, rep.Reason)
		}
		if rep.Iterations < 1 || rep.Iterations > 6 {
			t.Errorf("decades=%g: %d iterations, want 1..6", decades, rep.Iterations)
		}
		if res >= matrix.ResidualThreshold {
			t.Errorf("decades=%g: residual %g fails the HPL bar", decades, res)
		}
	}
}

// TestSolveMixedMatchesFP64 compares the accepted mixed solution against
// the plain FP64 solve: both pass the bar, and the solutions agree to
// refinement accuracy.
func TestSolveMixedMatchesFP64(t *testing.T) {
	n := 200
	a, b := matrix.RandomSystem(n, 99)
	xm, resM, rep, err := SolveMixed(a, b, Options{NB: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FellBack {
		t.Fatalf("well-conditioned system fell back: %v", rep.Reason)
	}
	x64, res64, err := Solve(a, b, Options{NB: 32, Workers: 2}, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if resM >= matrix.ResidualThreshold || res64 >= matrix.ResidualThreshold {
		t.Fatalf("residuals %g / %g fail the bar", resM, res64)
	}
	var norm, diff float64
	for i := range xm {
		if v := math.Abs(x64[i]); v > norm {
			norm = v
		}
		if d := math.Abs(xm[i] - x64[i]); d > diff {
			diff = d
		}
	}
	if diff > 1e-6*(norm+1) {
		t.Errorf("mixed and FP64 solutions differ by %g (‖x‖ = %g)", diff, norm)
	}
}

// subnormalColumn rescales column col of a to ~1e-41: nonzero and
// factorable in float64, but below the float32 normal range, so the FP32
// panel factorization hits its subnormal-pivot guard deterministically —
// singular in FP32, regular in FP64.
func subnormalColumn(a *matrix.Dense, col int) {
	for i := 0; i < a.Rows; i++ {
		a.Set(i, col, float64(i+1)*1e-41)
	}
}

// TestSolveMixedSingularFP32Fallback: a matrix that is singular in
// float32 (one column entirely below the FP32 normal range) but regular
// in float64 must trip the FP32 factorization, fall back with
// FallbackSingular, and still solve in FP64.
func TestSolveMixedSingularFP32Fallback(t *testing.T) {
	n := 12
	a, b := matrix.RandomSystem(n, 5)
	subnormalColumn(a, 5)
	x, res, rep, err := SolveMixed(a, b, Options{NB: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack || rep.Reason != FallbackSingular {
		t.Fatalf("FellBack=%v Reason=%v, want fp32-singular fallback", rep.FellBack, rep.Reason)
	}
	if rep.Iterations != 0 {
		t.Errorf("iterations = %d before factorization failure, want 0", rep.Iterations)
	}
	if len(x) != n || res >= matrix.ResidualThreshold {
		t.Errorf("FP64 fallback residual %g fails the HPL bar", res)
	}
}

// TestSolveMixedObservability: spans land on the attached recorder — the
// FP32 DAG's task spans (one PanelFact per stage, one Update per stage and
// later panel) and one "Refine" per iteration — and the lu.* counters
// advance. The fallback re-solve runs the sequential driver, which emits
// no spans.
func TestSolveMixedObservability(t *testing.T) {
	reg := metrics.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)

	spanCounts := func(rec *trace.Recorder) map[string]int {
		counts := map[string]int{}
		for _, s := range rec.Spans() {
			counts[s.Name]++
		}
		return counts
	}
	tasks := func(np int) map[string]int {
		return map[string]int{"PanelFact": np, "Update": np * (np - 1) / 2}
	}

	rec := new(trace.Recorder)
	a, b := matrix.RandomSystem(100, 3)
	_, _, rep, err := SolveMixed(a, b, Options{NB: 32, Workers: 2, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := tasks(4)
	want["Refine"] = rep.Iterations
	if got := spanCounts(rec); !maps.Equal(got, want) {
		t.Errorf("accepted path spans %v, want %v", got, want)
	}

	// Fallback path: a singular-in-FP32 matrix records the FP32 attempt's
	// task spans and no refinement.
	rec2 := new(trace.Recorder)
	a2, b2 := matrix.RandomSystem(8, 5)
	subnormalColumn(a2, 3)
	_, _, rep2, err2 := SolveMixed(a2, b2, Options{NB: 4, Trace: rec2})
	if err2 != nil || !rep2.FellBack || rep2.Reason != FallbackSingular {
		t.Fatalf("expected clean fp32-singular fallback, got rep=%+v err=%v", rep2, err2)
	}
	if got, want := spanCounts(rec2), tasks(2); !maps.Equal(got, want) {
		t.Errorf("fallback path spans %v, want %v", got, want)
	}

	snap := reg.Snapshot()
	if snap.Counters["lu.mixed_solves"] != 2 {
		t.Errorf("lu.mixed_solves = %d, want 2", snap.Counters["lu.mixed_solves"])
	}
	if got, want := snap.Counters["lu.refine_iters"], int64(rep.Iterations+rep2.Iterations); got != want {
		t.Errorf("lu.refine_iters = %d, want %d", got, want)
	}
	if snap.Counters["lu.mixed_fallbacks"] != 1 {
		t.Errorf("lu.mixed_fallbacks = %d, want 1", snap.Counters["lu.mixed_fallbacks"])
	}
}

// TestSolveInPlaceMixed: at float32, SolveInPlace under every driver
// against the seeded system gives SolveMixed's solution, residual and step
// count bit for bit; a matrix singular in FP32 comes back as a typed
// fallback with no solution and no error; a cancelled context returns its
// error and no report.
func TestSolveInPlaceMixed(t *testing.T) {
	const n, seed = 96, 21
	opts := Options{NB: 16, Workers: 3}
	a, b := matrix.RandomSystem(n, seed)
	want, wantRes, wantRep, err := SolveMixed(a, b, opts)
	if err != nil || wantRep.FellBack {
		t.Fatalf("reference: rep %+v, err %v", wantRep, err)
	}
	for _, d := range ctxDriversOf[float32]() {
		x, res, secs, rep, err := SolveInPlace(context.Background(), a.ToDense32(), matrix.SeededSystem(n, seed), opts, d.driver)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if rep == nil || *rep != wantRep || res != wantRes || secs <= 0 {
			t.Errorf("%s: rep %+v residual %g seconds %g, want rep %+v residual %g", d.name, rep, res, secs, wantRep, wantRes)
		}
		if !slices.Equal(x, want) {
			t.Errorf("%s: x differs from SolveMixed's", d.name)
		}
	}

	s, sb := matrix.RandomSystem(12, 5)
	subnormalColumn(s, 5)
	x, _, _, rep, err := SolveInPlace(context.Background(), s.ToDense32(), matrix.DenseSystem(s, sb), opts, DynamicCtx)
	if err != nil || x != nil || rep == nil || !rep.FellBack || rep.Reason != FallbackSingular {
		t.Errorf("singular in FP32: x %v, rep %+v, err %v; want a fp32-singular fallback and no x", x, rep, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if x, _, _, rep, err := SolveInPlace(ctx, a.ToDense32(), matrix.DenseSystem(a, b), opts, DynamicCtx); err != context.Canceled || x != nil || rep != nil {
		t.Errorf("cancelled: x %v, rep %+v, err %v; want context.Canceled alone", x != nil, rep, err)
	}
}

// TestSolveMixedPanics pins the argument contract.
func TestSolveMixedPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected non-square panic")
			}
		}()
		SolveMixed(matrix.NewDense(3, 4), make([]float64, 3), Options{})
	}()
	defer func() {
		if recover() == nil {
			t.Error("expected rhs-length panic")
		}
	}()
	SolveMixed(matrix.NewDense(3, 3), make([]float64, 2), Options{})
}

// TestPrecisionModeRoundTrip covers the flag vocabulary.
func TestPrecisionModeRoundTrip(t *testing.T) {
	for _, m := range []PrecisionMode{PrecisionFP64, PrecisionMixed} {
		got, err := ParsePrecisionMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip of %v: got %v, err %v", m, got, err)
		}
	}
	if _, err := ParsePrecisionMode("fp16"); err == nil {
		t.Error("expected error for unknown mode")
	}
	if s := PrecisionMode(99).String(); s != "PrecisionMode(99)" {
		t.Errorf("unknown mode stringer = %q", s)
	}
	for want, r := range map[string]FallbackReason{
		"none": FallbackNone, "fp32-singular": FallbackSingular,
		"refinement-stalled": FallbackStalled, "non-finite": FallbackNonFinite,
	} {
		if r.String() != want {
			t.Errorf("reason %d String = %q, want %q", int(r), r.String(), want)
		}
	}
}

// FuzzMixedRefine is the satellite-2 solver fuzz: for arbitrary sizes,
// condition grades and near-dependency scales, the mixed solver must
// either return a residual that PASSES the HPL bar or report a typed
// fallback — never a silent wrong answer. Run with
// `go test -fuzz=FuzzMixedRefine` for a deep hunt.
func FuzzMixedRefine(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(0), uint8(0))
	f.Add(uint64(42), uint8(40), uint8(8), uint8(0))
	f.Add(uint64(7), uint8(33), uint8(0), uint8(9))  // near-dependent rows
	f.Add(uint64(9), uint8(1), uint8(13), uint8(0))  // n = 2 extreme grading
	f.Add(uint64(3), uint8(24), uint8(5), uint8(12)) // graded + dependency
	f.Fuzz(func(t *testing.T, seed uint64, nR, decR, tauR uint8) {
		n := 2 + int(nR)%48
		decades := float64(int(decR) % 14)
		a, b := gradedSystem(n, decades, seed)
		if tauR != 0 && n > 4 {
			tau := math.Pow(10, -float64(int(tauR)%13))
			ad, bd := nearDepSystem(n, tau, seed)
			a, b = ad, bd
		}
		x, res, rep, err := SolveMixed(a, b, Options{NB: 8, Workers: 2})
		if err != nil {
			// Only a failed FP64 fallback may error, and then it must have
			// been reported as a fallback.
			if !rep.FellBack || rep.Reason == FallbackNone {
				t.Fatalf("error %v without a typed fallback report", err)
			}
			return
		}
		if len(x) != n {
			t.Fatalf("solution length %d, want %d", len(x), n)
		}
		if rep.FellBack && rep.Reason == FallbackNone {
			t.Fatal("fallback without a reason")
		}
		if !rep.FellBack && rep.Reason != FallbackNone {
			t.Fatalf("reason %v without fallback", rep.Reason)
		}
		// The contract: no silent wrong answers. An accepted FP32-path
		// solution must pass the HPL residual bar.
		if !rep.FellBack && res >= matrix.ResidualThreshold {
			t.Fatalf("silent wrong answer: residual %g with no fallback (n=%d dec=%g)", res, n, decades)
		}
	})
}
