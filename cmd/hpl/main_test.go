package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"phihpl"
	"phihpl/internal/hplio"
)

// runHPL runs the command on args and returns its exit code and stdout.
func runHPL(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("hpl %s: stderr: %s", strings.Join(args, " "), stderr.String())
	}
	return code, stdout.String()
}

// TestMixedSupportedPaths locks the -precision mixed contract: the native
// shared-memory solve and the real grid driver accept mixed on every
// shape, and fp64 is accepted everywhere.
func TestMixedSupportedPaths(t *testing.T) {
	small := []string{"-n", "64", "-nb", "16"}
	for _, args := range [][]string{
		{"-native"},
		{"-real", "-p", "2", "-q", "3"},
		{"-native", "-ft"}, // -native wins before the FT path is reached
	} {
		if code, out := runHPL(t, append(append(args, small...), "-precision", "mixed")...); code != exitPass {
			t.Errorf("%v with -precision mixed: exit %d, want 0:\n%s", args, code, out)
		}
	}
	for _, args := range [][]string{
		append([]string{"-real"}, small...), append([]string{"-ft"}, small...), {"-dat", "-"}, {"-n", "84000"},
	} {
		if code, out := runHPL(t, args...); code != exitPass {
			t.Errorf("%v with fp64: exit %d, want 0:\n%s", args, code, out)
		}
	}
}

// TestRealRanksMixedSolves: `-real -p 1 -q 3 -precision mixed`, the single
// process row that -ranks 3 used to name, solves, refines without falling
// back, and passes.
func TestRealRanksMixedSolves(t *testing.T) {
	code, out := runHPL(t, "-real", "-n", "150", "-nb", "16", "-p", "1", "-q", "3", "-precision", "mixed")
	if code != exitPass || !strings.Contains(out, "PASSED") {
		t.Errorf("exit %d, want a PASSED solve:\n%s", code, out)
	}
	if !strings.Contains(out, "precision=mixed refine-iters=") || !strings.Contains(out, "fallback=none") {
		t.Errorf("want FP32 factors refined to the bar:\n%s", out)
	}
}

// TestMixedUnsupportedGuard: the paths outside the mixed ladder refuse
// with exit code 3 and a diagnostic that names both the reason and the
// nearest supported invocation, instead of silently running FP64. -dat
// and the projection never build a Spec, so the command refuses them;
// mixed with the fault-tolerant solver is Spec.Validate's refusal.
func TestMixedUnsupportedGuard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		wants []string
	}{
		{name: "dat", args: []string{"-dat", "-"}, wants: []string{"-dat", "-real -p P -q Q"}},
		{name: "dat beats real", args: []string{"-dat", "-", "-real"}, wants: []string{"-dat"}},
		{name: "projection", args: []string{"-n", "84000"}, wants: []string{"projection", "-native", "-real"}},
	} {
		msg := mixedUnsupportedMsg(tc.args[0] == "-dat")
		for _, want := range tc.wants {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: diagnostic %q should mention %q", tc.name, msg, want)
			}
		}
		if code, out := runHPL(t, append(tc.args, "-precision", "mixed")...); code != exitUnsupported || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit %d and no report", tc.name, code, out, exitUnsupported)
		}
	}
	_, err := phihpl.Run(context.Background(), phihpl.Spec{Mode: phihpl.ModeFT, N: 64, NB: 16, P: 1, Q: 1,
		Precision: phihpl.PrecisionMixed}, nil)
	if code := exitCode(err); code != exitUnsupported || !strings.Contains(err.Error(), "ABFT") {
		t.Errorf("ft: exit %d for %v, want %d and the ABFT reason", code, err, exitUnsupported)
	}
	if code, _ := runHPL(t, "-ft", "-n", "64", "-precision", "mixed"); code != exitUnsupported {
		t.Errorf("-ft -precision mixed: exit %d, want %d", code, exitUnsupported)
	}
	if exitUnsupported != 3 {
		t.Errorf("exitUnsupported = %d, want the documented code 3", exitUnsupported)
	}
}

// The sanity strings and the Gflops pattern an HPL harness scrapes
// HPL.out with (ReFrame's HPL check), copied verbatim; ReFrame searches
// in multi-line mode.
var (
	hplSanity  = []string{"End of Tests.", "0 tests completed and failed residual checks", "0 tests skipped because of illegal input values."}
	hplGflopsR = regexp.MustCompile(`(?m)` + `^W[R|C]\S+\s+\d+\s+\d+\s+\d+\s+\d+\s+\d[\d.]+\s+(\d[\d.eE+]+)`)
)

// TestHPLOutConformance: every mode's report is one a harness can scrape.
// Each measured run passes the sanity strings and yields a Gflops value
// that parses whole; its rate is HPL's, LUFlops(N) over the timed phase
// (pinned below at a fixed 0.5 s). A -dat row with DEPTH d names d in its
// T/V code. Projected rows — the hybrid projection, the built-in HPL.dat
// whose N are all above the measured limit — yield no Gflops at all.
func TestHPLOutConformance(t *testing.T) {
	dat := filepath.Join(t.TempDir(), "HPL.dat")
	if err := os.WriteFile(dat, []byte(`HPLinpack benchmark input file
2            # of problems sizes (N)
96 200       Ns
1            # of NBs
32           NBs
2            # of process grids (P x Q)
1 2          Ps
1 2          Qs
3            # of lookahead depth
0 1 2        DEPTHs
`), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-n", "200", "-nb", "32"}
	for _, args := range [][]string{
		{"-native"},
		{"-native", "-precision", "mixed"},
		{"-real", "-p", "2", "-q", "2"},
		{"-real", "-p", "2", "-q", "2", "-precision", "mixed"},
		{"-ft", "-p", "2", "-q", "2"},
		{"-dat", dat},
	} {
		code, out := runHPL(t, append(args, small...)...)
		if code != exitPass {
			t.Errorf("%v: exit %d, want 0:\n%s", args, code, out)
		}
		for _, s := range hplSanity {
			if !strings.Contains(out, s) {
				t.Errorf("%v: sanity string %q not found:\n%s", args, s, out)
			}
		}
		m := hplGflopsR.FindAllStringSubmatch(out, -1)
		if len(m) == 0 {
			t.Errorf("%v: the Gflops pattern matches nothing:\n%s", args, out)
		}
		for _, sub := range m {
			if g, err := strconv.ParseFloat(sub[1], 64); err != nil || g <= 0 {
				t.Errorf("%v: scraped Gflops %q is not a positive number", args, sub[1])
			}
		}
		if args[0] == "-dat" {
			for d := 0; d <= 2; d++ {
				if got := strings.Count(out, fmt.Sprintf("\nWR%dTR1RN", d)); got != 4 {
					t.Errorf("-dat: %d rows name DEPTH %d, want 4 (2 Ns x 2 grids):\n%s", got, d, out)
				}
			}
		}
	}
	for _, args := range [][]string{{"-n", "84000"}, {"-dat", "-"}} {
		code, out := runHPL(t, args...)
		if code != exitPass || !strings.Contains(out, "End of Tests.") {
			t.Errorf("%v: exit %d, want 0 and a finished report:\n%s", args, code, out)
		}
		if m := hplGflopsR.FindAllString(out, -1); len(m) != 0 {
			t.Errorf("%v: projected rows must not scrape as measurements, got %q", args, m)
		}
	}

	// A fixed timed phase pins the arithmetic: 2/3·n³ + 2·n² flops in 0.5 s.
	for _, tc := range []struct {
		sp phihpl.Spec
		tv string
	}{
		{phihpl.Spec{Mode: phihpl.ModeDist2D, N: 1000, NB: 64, P: 2, Q: 2}, "WR2TR1RN"},
		{phihpl.Spec{Mode: phihpl.ModeNative, N: 1000, NB: 64, Workers: 4, Precision: phihpl.PrecisionMixed}, "WRDTR1RN"},
	} {
		var sb strings.Builder
		hplio.Write(&sb, "", []hplio.Result{phihpl.ReportRow(tc.sp, phihpl.SolveResult{Seconds: 0.5, Residual: 0.01, Passed: true})})
		m := hplGflopsR.FindStringSubmatch(sb.String())
		want := fmt.Sprintf("%.4f", phihpl.LUFlops(1000)/0.5/1e9)
		if m == nil || m[1] != want || !strings.HasPrefix(m[0], tc.tv+" ") || want != "1.3373" {
			t.Errorf("%s: scraped %q, want T/V %s and Gflops %s (LUFlops(n)/Seconds):\n%s", tc.sp.Mode, m, tc.tv, want, sb.String())
		}
	}
}
