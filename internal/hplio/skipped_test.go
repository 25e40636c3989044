package hplio

import (
	"strings"
	"testing"
)

// Regression: the report writer hardcoded "0 tests skipped" in the footer, so
// combinations rejected for illegal input values vanished from the report.
// Skipped results must be counted in the footer, excluded from the
// "Finished N tests" total, and print no WR or residual line.
func TestWriteReportSkipped(t *testing.T) {
	results := []Result{
		{
			Combination: Combination{N: 1000, NB: 64, P: 1, Q: 1, Depth: 1},
			Seconds:     1.5, GFLOPS: 440, Residual: 0.003, Passed: true,
		},
		{
			Combination: Combination{N: 0, NB: 64, P: 1, Q: 1, Depth: 1},
			Residual:    -1, Skipped: true,
		},
		{
			Combination: Combination{N: 2000, NB: 0, P: 1, Q: 1, Depth: 1},
			Residual:    -1, Skipped: true,
		},
	}
	var b strings.Builder
	Write(&b, "", results)
	out := b.String()

	if !strings.Contains(out, "Finished      1 tests") {
		t.Errorf("finished count must exclude skipped runs:\n%s", out)
	}
	if !strings.Contains(out, "1 tests completed and passed") {
		t.Errorf("passed count wrong:\n%s", out)
	}
	if !strings.Contains(out, "2 tests skipped because of illegal input values") {
		t.Errorf("skipped count missing:\n%s", out)
	}
	if got := strings.Count(out, "WR"); got != 1 {
		t.Errorf("skipped combinations must print no WR line (got %d):\n%s", got, out)
	}
	if got := strings.Count(out, "||Ax-b||"); got != 1 {
		t.Errorf("skipped combinations must print no residual line (got %d):\n%s", got, out)
	}
}

// A report with no skips keeps the reference footer shape.
func TestWriteReportNoSkips(t *testing.T) {
	results := []Result{{
		Combination: Combination{N: 500, NB: 32, P: 1, Q: 1, Depth: 0},
		Seconds:     0.1, GFLOPS: 12, Residual: 0.001, Passed: true,
	}}
	var b strings.Builder
	Write(&b, "", results)
	out := b.String()
	if !strings.Contains(out, "Finished      1 tests") ||
		!strings.Contains(out, "0 tests skipped because of illegal input values") {
		t.Errorf("footer:\n%s", out)
	}
}
