package hpl

import (
	"runtime"
	"strings"
	"testing"

	"phihpl/internal/lu"
)

// TestGridRootHoldsNoFullMatrix pins that no rank of the grid — the root
// included — allocates an n×n matrix during a solve: not to generate the
// system (every rank generates only its own blocks), not to assemble the
// factors (the root solves from the gathered local matrices) and not to
// check the residual (it is streamed from the seed). With every
// allocation profiled, no object allocated under a grid rank's frames
// reaches half an n×n FP64 matrix; the largest left is a rank's own local
// matrix, a quarter of one on 2×2, or its copy on the wire.
func TestGridRootHoldsNoFullMatrix(t *testing.T) {
	const n, nb, P, Q = 256, 32, 2, 2
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for name, solve := range map[string]func() (DistResult, error){
		"fp64": func() (DistResult, error) { return SolveDistributed2D(n, nb, P, Q, 3) },
		"mixed": func() (DistResult, error) {
			return SolveDistributed2DPrecision(n, nb, P, Q, 3, LookaheadPipelined, lu.PrecisionMixed)
		},
		"ft": func() (DistResult, error) { return SolveDistributed2DFT(n, nb, P, Q, 3, FTConfig{}) },
	} {
		before := gridAllocs()
		if _, err := solve(); err != nil {
			t.Fatal(err)
		}
		for stk, a := range gridAllocs() {
			b := before[stk]
			if objs := a.objects - b.objects; objs > 0 && (a.bytes-b.bytes)/objs >= n*n*8/2 {
				t.Errorf("%s: %d-byte objects allocated at\n%s", name, (a.bytes-b.bytes)/objs, frames(stk[:]))
			}
		}
	}
}

type allocs struct{ bytes, objects int64 }

// gridAllocs returns the allocation profile's records whose stack passes
// through a grid rank, by stack.
func gridAllocs() map[[32]uintptr]allocs {
	runtime.GC() // the profile is as of the last completed cycle
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := map[[32]uintptr]allocs{}
	for _, r := range recs[:min(n, len(recs))] {
		if strings.Contains(frames(r.Stack()), "hpl.(*grid2d[") {
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
			b.WriteString(f.Function + "\n")
		}
		if !more {
			return b.String()
		}
	}
}
