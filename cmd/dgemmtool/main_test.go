package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestVerifyShapes runs -verify where the packed paths change behaviour: a
// thin update (k = 3), partial tiles on both edges (29×7) and a depth of
// two K-blocks (k = 401). Each must exit 0 with both bitwise checks
// reported.
func TestVerifyShapes(t *testing.T) {
	for _, args := range [][]string{
		{"-verify", "-m", "64", "-n", "48", "-k", "3"},
		{"-verify", "-m", "29", "-n", "7", "-k", "40"},
		{"-verify", "-m", "61", "-n", "33", "-k", "401"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errOut.String())
		}
		for _, want := range []string{
			"offload work-stealing: bitwise identical to packed-tile kernel",
			"prepacked GEMM: bitwise identical to packed fast path",
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, out.String())
			}
		}
	}
}

// TestBadFlagExits2: an unknown flag is a usage error, not a verdict.
func TestBadFlagExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
