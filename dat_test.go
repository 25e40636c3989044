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
	if err := RunDat(context.Background(), strings.NewReader(in), &out, 2000, LookaheadPipelined); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The small N runs the real solver and prints residual lines.
	if !strings.Contains(s, "PASSED") {
		t.Errorf("expected a real PASSED residual line:\n%s", s)
	}
	// 2 Ns x 2 depths = 4 result rows.
	if got := strings.Count(s, "WR"); got != 4 {
		t.Errorf("expected 4 result rows, got %d:\n%s", got, s)
	}
	if !strings.Contains(s, "2 tests completed and passed") {
		t.Errorf("summary wrong:\n%s", s)
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
	if err := RunDat(context.Background(), strings.NewReader(in), &out, 2000, LookaheadPipelined); err != nil {
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

func TestRunDatParseError(t *testing.T) {
	if err := RunDat(context.Background(), strings.NewReader("garbage"), &strings.Builder{}, 0, LookaheadPipelined); err == nil {
		t.Error("expected parse error")
	}
}

func TestRunDatExampleAllSim(t *testing.T) {
	var out strings.Builder
	if err := RunDat(context.Background(), strings.NewReader(hplio.Example()), &out, 0, LookaheadPipelined); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "PASSED") {
		t.Error("pure-sim run must not print residual lines")
	}
}

func TestDepthMapping(t *testing.T) {
	if depthToMode(0) != LookaheadNone || depthToMode(1) != LookaheadBasic || depthToMode(2) != LookaheadPipelined {
		t.Error("depth mapping")
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
