package phihpl

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/trace"
)

// A native solve generates A into the matrix it factors and checks (FP64)
// or refines (mixed) x against the seed, so under every scheduler, through
// Solve and through Run, the allocation profile shows exactly one object of
// half an n×n FP64 matrix or more: A itself, 8n² bytes in FP64 and 4n² in
// mixed precision. A second one (a copy kept for the residual, an FP64 A
// beside the FP32 one) names its call site.
func TestNativeSolveHoldsOneMatrix(t *testing.T) {
	const n, nb, workers = 256, 32, 2
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, s := range []Scheduler{Sequential, StaticLookahead, DynamicDAG} {
		for name, solve := range map[string]func() (SolveResult, error){
			"Solve": func() (SolveResult, error) { return Solve(n, s, nb, workers, 3) },
			"Run": func() (SolveResult, error) {
				return Run(context.Background(), Spec{N: n, NB: nb, Workers: workers, Seed: 3, Scheduler: s}, nil)
			},
			"Run mixed": func() (SolveResult, error) {
				return Run(context.Background(), Spec{N: n, NB: nb, Workers: workers, Seed: 3, Scheduler: s, Precision: PrecisionMixed}, nil)
			},
		} {
			before := largeAllocs(n * n * 8 / 2)
			r, err := solve()
			if err != nil {
				t.Fatalf("%s scheduler %v: %v", name, s, err)
			}
			if !r.Passed {
				t.Errorf("%s scheduler %v: residual %g", name, s, r.Residual)
			}
			objs, sites := 0, ""
			for stk, a := range largeAllocs(n * n * 8 / 2) {
				if d := a.objects - before[stk].objects; d > 0 {
					objs += int(d)
					sites += fmt.Sprintf("%d × %d bytes at\n%s", d, a.bytes/a.objects, frames(stk[:]))
				}
			}
			if objs != 1 {
				t.Errorf("%s scheduler %v: %d objects of half an n×n or more, want 1:\n%s", name, s, objs, sites)
			}
		}
	}
}

type allocs struct{ bytes, objects int64 }

// largeAllocs returns the allocation profile's records of objects of at
// least min bytes, by stack. The runtime keys a record by stack and size,
// so every object of a record has the same size.
func largeAllocs(min int64) map[[32]uintptr]allocs {
	runtime.GC() // the profile is as of the last completed cycle
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := map[[32]uintptr]allocs{}
	for _, r := range recs[:n] {
		if r.AllocObjects > 0 && r.AllocBytes/r.AllocObjects >= min {
			out[r.Stack0] = allocs{r.AllocBytes, r.AllocObjects}
		}
	}
	return out
}

func frames(stk []uintptr) string {
	var b strings.Builder
	fs := runtime.CallersFrames(stk)
	for {
		f, more := fs.Next()
		if f.Function != "" {
			b.WriteString("\t" + f.Function + "\n")
		}
		if !more {
			return b.String()
		}
	}
}

// A native FP64 Spec runs the DAG driver with the caller's workers: its X
// hashes equal lu.Sequential's on the same system, and an attached
// recorder receives the DAG's task spans, which the sequential driver
// never emits.
func TestMixedPrecisionFP64MatchesSequential(t *testing.T) {
	const n, nb, workers, seed = 200, 24, 3, 11
	a, b := matrix.RandomSystem(n, seed)
	want, _, err := lu.Solve(a, b, lu.Options{NB: nb, Workers: 1}, lu.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	rec := new(trace.Recorder)
	for name, solve := range map[string]func() (SolveResult, error){
		"Run": func() (SolveResult, error) {
			return Run(context.Background(), Spec{N: n, NB: nb, Workers: workers, Seed: seed, Precision: PrecisionFP64}, nil)
		},
		"Run traced": func() (SolveResult, error) {
			return Run(context.Background(), Spec{N: n, NB: nb, Workers: workers, Seed: seed, Precision: PrecisionFP64}, rec)
		},
	} {
		r, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Passed || r.Refine != nil {
			t.Errorf("%s: passed=%v refine=%v, want a passing solve with no refinement report", name, r.Passed, r.Refine)
		}
		if got, want := hashX(r.X), hashX(want); got != want {
			t.Errorf("%s: X hash %x, want lu.Sequential's %x", name, got, want)
		}
	}
	if rec.Totals()["PanelFact"] == 0 {
		t.Error("fp64 mode recorded no DAG task spans: it did not run the DAG driver")
	}
}

// A native mixed Spec is the FP32 instantiation of the native solve: under
// every scheduler its X hashes equal lu.SolveMixed's on the same system,
// with the same refinement report, and a traced DAG run records the FP32
// DAG's task spans beside its refinement steps.
func TestNativeMixedMatchesSolveMixed(t *testing.T) {
	const n, nb, workers, seed = 200, 24, 3, 11
	a, b := matrix.RandomSystem(n, seed)
	want, _, wantRep, err := lu.SolveMixed(a, b, lu.Options{NB: nb, Workers: 1})
	if err != nil || wantRep.FellBack {
		t.Fatalf("reference: rep %+v, err %v", wantRep, err)
	}
	for _, s := range []Scheduler{Sequential, StaticLookahead, DynamicDAG} {
		rec := new(trace.Recorder)
		r, err := Run(context.Background(), Spec{N: n, NB: nb, Workers: workers, Seed: seed, Scheduler: s, Precision: PrecisionMixed}, rec)
		if err != nil {
			t.Fatalf("scheduler %v: %v", s, err)
		}
		if !r.Passed || r.Refine == nil || *r.Refine != wantRep {
			t.Errorf("scheduler %v: passed=%v refine=%+v, want a passing solve reporting %+v", s, r.Passed, r.Refine, wantRep)
		}
		if got, want := hashX(r.X), hashX(want); got != want {
			t.Errorf("scheduler %v: X hash %x, want lu.SolveMixed's %x", s, got, want)
		}
		totals := rec.Totals()
		if s == DynamicDAG && (totals["PanelFact"] == 0 || totals["Refine"] == 0) {
			t.Errorf("traced DAG mixed solve recorded %v, want PanelFact and Refine spans", totals)
		}
	}
}

func hashX(x []float64) uint64 {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, x) // a hash's Write never fails
	return h.Sum64()
}
