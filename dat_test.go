package phihpl

import (
	"context"
	"strings"
	"testing"

	"phihpl/internal/hplio"
)

func TestRunDatMixedRealAndSim(t *testing.T) {
	in := `HPLinpack benchmark input file
2        # of problems sizes (N)
240 84000 Ns
1        # of NBs
48       NBs
1        # of process grids (P x Q)
2        Ps
2        Qs
2        # of lookahead depth
1 2      DEPTHs
`
	var out strings.Builder
	if err := RunDat(context.Background(), strings.NewReader(in), &out, 2000); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The small N runs the real solver and prints residual lines.
	if !strings.Contains(s, "PASSED") {
		t.Errorf("expected a real PASSED residual line:\n%s", s)
	}
	// 2 Ns x 2 depths = 4 rows: the small N measured under the schedule
	// each DEPTH names, the large N projected.
	for _, w := range []string{"\nWR1TR1RN", "\nWR2TR1RN", "\nKNCd1", "\nKNCd2"} {
		if got := strings.Count(s, w); got != 1 {
			t.Errorf("expected one %q row, got %d:\n%s", w[1:], got, s)
		}
	}
	for _, w := range []string{"2 tests completed and passed", "2 rows projected", "End of Tests."} {
		if !strings.Contains(s, w) {
			t.Errorf("summary missing %q:\n%s", w, s)
		}
	}
}

func TestRunDatSkipsIllegalCombinations(t *testing.T) {
	// A non-positive N must be skipped and counted in the footer, not run
	// (the real solver would reject it) nor priced by the simulator.
	in := `HPLinpack benchmark input file
2        # of problems sizes (N)
0 240    Ns
1        # of NBs
48       NBs
1        # of process grids (P x Q)
1        Ps
1        Qs
1        # of lookahead depth
1        DEPTHs
`
	var out strings.Builder
	if err := RunDat(context.Background(), strings.NewReader(in), &out, 2000); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "1 tests skipped because of illegal input values") {
		t.Errorf("skipped count missing:\n%s", s)
	}
	if !strings.Contains(s, "Finished      1 tests") {
		t.Errorf("finished count must exclude the skipped combination:\n%s", s)
	}
	if got := strings.Count(s, "WR"); got != 1 {
		t.Errorf("expected 1 result row, got %d:\n%s", got, s)
	}
}

// Rows print in the order HPL runs the combinations, grids outermost in
// file order: a file listing 2×2 before 1×4 reports the 2×2 rows first.
func TestRunDatKeepsFileGridOrder(t *testing.T) {
	in := `HPLinpack benchmark input file
2        # of problems sizes (N)
40 32    Ns
1        # of NBs
8        NBs
2        # of process grids (P x Q)
2 1      Ps
2 4      Qs
1        # of lookahead depth
1        DEPTHs
`
	var out strings.Builder
	if err := RunDat(context.Background(), strings.NewReader(in), &out, 2000); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 5 && strings.HasPrefix(f[0], "WR") {
			got = append(got, strings.Join(f[1:5], " "))
		}
	}
	want := []string{"40 8 2 2", "32 8 2 2", "40 8 1 4", "32 8 1 4"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("rows (N NB P Q) = %q, want %q:\n%s", got, want, out.String())
	}
}

func TestRunDatParseError(t *testing.T) {
	if err := RunDat(context.Background(), strings.NewReader("garbage"), &strings.Builder{}, 0); err == nil {
		t.Error("expected parse error")
	}
}

func TestRunDatExampleAllSim(t *testing.T) {
	var out strings.Builder
	if err := RunDat(context.Background(), strings.NewReader(hplio.Example()), &out, 0); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); strings.Contains(s, "PASSED") || strings.Contains(s, "\nWR") || !strings.Contains(s, "8 rows projected") {
		t.Errorf("pure-sim run must print only projected rows and no residual lines:\n%s", s)
	}
}

func TestDepthMapping(t *testing.T) {
	if depthToMode(0) != LookaheadNone || depthToMode(1) != LookaheadBasic || depthToMode(2) != LookaheadPipelined {
		t.Error("depth mapping")
	}
	for d := 0; d <= 2; d++ {
		if got := depthToMode(d).Depth(); got != d {
			t.Errorf("depthToMode(%d).Depth() = %d", d, got)
		}
	}
	if simNB(48) != 1200 || simNB(1200) != 1200 || simNB(960) != 960 {
		t.Error("simNB promotion")
	}
}

func TestLUFlopsExport(t *testing.T) {
	if LUFlops(3) != 2.0/3.0*27+18 {
		t.Error("LUFlops")
	}
}

func TestEnergyExperiment(t *testing.T) {
	out := Energy()
	for _, w := range []string{"GFLOPS/W", "hybrid HPL", "native on cards", "host-only"} {
		if !strings.Contains(out, w) {
			t.Errorf("energy output missing %q:\n%s", w, out)
		}
	}
}
