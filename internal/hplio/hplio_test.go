package hplio

import (
	"strings"
	"testing"
)

func TestParseExample(t *testing.T) {
	p, err := Parse(strings.NewReader(Example()))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ns) != 2 || p.Ns[0] != 84000 || p.Ns[1] != 166800 {
		t.Errorf("Ns = %v", p.Ns)
	}
	if len(p.NBs) != 1 || p.NBs[0] != 1200 {
		t.Errorf("NBs = %v", p.NBs)
	}
	if len(p.Ps) != 2 || p.Ps[1] != 2 || p.Qs[1] != 2 {
		t.Errorf("grids = %v x %v", p.Ps, p.Qs)
	}
	if len(p.Depths) != 2 || p.Depths[0] != 1 || p.Depths[1] != 2 {
		t.Errorf("depths = %v", p.Depths)
	}
}

func TestCombinationsCrossProduct(t *testing.T) {
	p, _ := Parse(strings.NewReader(Example()))
	combos := p.Combinations()
	// 2 grids x 2 Ns x 1 NB x 2 depths = 8.
	if len(combos) != 8 {
		t.Fatalf("combos = %d, want 8", len(combos))
	}
	// Grid outermost, then N, then depth.
	if combos[0] != (Combination{N: 84000, NB: 1200, P: 1, Q: 1, Depth: 1}) {
		t.Errorf("first = %+v", combos[0])
	}
	last := combos[len(combos)-1]
	if last.P != 2 || last.Q != 2 || last.N != 166800 || last.Depth != 2 {
		t.Errorf("last = %+v", last)
	}
}

func TestCombinationsDefaultDepth(t *testing.T) {
	p := &Params{Ns: []int{100}, NBs: []int{10}, Ps: []int{1}, Qs: []int{1}}
	combos := p.Combinations()
	if len(combos) != 1 || combos[0].Depth != 1 {
		t.Errorf("default depth should be basic: %+v", combos)
	}
}

func TestParseIgnoresUnknownLines(t *testing.T) {
	in := `HPLinpack benchmark input file
device out (6=stdout,7=stderr,file)
1    # of problems sizes (N)
5000 Ns
1    # of NBs
128  NBs
16.0 threshold
1    # of process grids (P x Q)
2    Ps
3    Qs
`
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Ns[0] != 5000 || p.NBs[0] != 128 || p.Ps[0] != 2 || p.Qs[0] != 3 {
		t.Errorf("parsed %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("nothing useful")); err == nil {
		t.Error("empty spec should error")
	}
	bad := `1 # of problems sizes (N)
100 Ns
1 # of NBs
10 NBs
2 # of process grids (P x Q)
1 2 Ps
1   Qs
`
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("mismatched Ps/Qs should error")
	}
	badDepth := `1 # of problems sizes (N)
100 Ns
1 # of NBs
10 NBs
1 # of lookahead depth
7 DEPTHs
`
	if _, err := Parse(strings.NewReader(badDepth)); err == nil {
		t.Error("depth out of range should error")
	}
}

func TestParseDefaultsGrid(t *testing.T) {
	in := `1 # of problems sizes (N)
64 Ns
1 # of NBs
8 NBs
`
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ps) != 1 || p.Ps[0] != 1 || p.Qs[0] != 1 {
		t.Errorf("default grid: %v %v", p.Ps, p.Qs)
	}
}

func TestWriteReport(t *testing.T) {
	var sb strings.Builder
	Write(&sb, "grid: 2x2", []Result{
		{Combination: Combination{N: 1000, NB: 64, P: 2, Q: 2, Depth: 2},
			Seconds: 1.5, GFLOPS: 444.4, Residual: 0.0031, Passed: true},
		{Combination: Combination{N: 2000, NB: 64, P: 2, Q: 2, Depth: 1},
			Seconds: 9.1, GFLOPS: 585.0, Projected: true},
		{Combination: Combination{N: 500, NB: 64, P: 1, Q: 1, Depth: DepthDynamic},
			Seconds: 0.1, GFLOPS: 0.8333, Residual: 0.002, Passed: true},
	})
	out := sb.String()
	for _, w := range []string{"grid: 2x2\nT/V", "\nWR2TR1RN        1000    64     2     2               1.50               444.4000\n",
		"\nKNCd1           2000    64     2     2               9.10               585.0000\n",
		"\nWRDTR1RN         500", "Finished      2 tests", "2 tests completed and passed",
		"1 rows projected", "\nEnd of Tests.\n"} {
		if !strings.Contains(out, w) {
			t.Errorf("report missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "FAILED") || strings.Count(out, "||Ax-b||") != 2 {
		t.Errorf("only the measured rows print a residual verdict:\n%s", out)
	}

	// An aborted row prints its elapsed time and no rate, and the partial
	// report does not claim to have ended.
	sb.Reset()
	Write(&sb, "", []Result{{Combination: Combination{N: 1000, NB: 64, P: 1, Q: 1, Depth: 2}, Seconds: 2, Aborted: true}})
	out = sb.String()
	for _, w := range []string{"2.00                      -\n", "...... ABORTED", "1 tests aborted"} {
		if !strings.Contains(out, w) {
			t.Errorf("aborted report missing %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "End of Tests.") {
		t.Errorf("an aborted report must not end with End of Tests.:\n%s", out)
	}
}

func TestFirstIntAndLeadingInts(t *testing.T) {
	if firstInt("abc 42 xyz") != 42 {
		t.Error("firstInt")
	}
	if firstInt("no numbers") != 0 {
		t.Error("firstInt empty")
	}
	got := leadingInts("1 2 3 label", 2)
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("leadingInts = %v", got)
	}
}
