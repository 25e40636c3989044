package main

import (
	"bytes"
	"strings"
	"testing"

	"phihpl"
)

// TestList prints every experiment id, and -exp's help names them all.
func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	var help bytes.Buffer
	run([]string{"-h"}, &bytes.Buffer{}, &help)
	for _, e := range phihpl.Experiments() {
		if !strings.Contains(out.String(), e.ID) {
			t.Errorf("-list lacks %q:\n%s", e.ID, out.String())
		}
		if !strings.Contains(help.String(), e.ID) {
			t.Errorf("-exp help lacks %q:\n%s", e.ID, help.String())
		}
	}
}

// TestUnknownExperimentExits2: an id no experiment has is a usage error.
func TestUnknownExperimentExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown experiment "fig99"`) {
		t.Errorf("stderr lacks the diagnostic: %q", errOut.String())
	}
}

// TestFig8DrawsThreeCharts: -exp fig8 prints one chart per look-ahead
// scheme.
func TestFig8DrawsThreeCharts(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig8"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	if got := strings.Count(out.String(), "legend:"); got != 3 {
		t.Errorf("%d charts, want 3:\n%s", got, out.String())
	}
	for _, mode := range []string{"none", "basic", "pipelined"} {
		if !strings.Contains(out.String(), "look-ahead: "+mode) {
			t.Errorf("no %q chart:\n%s", mode, out.String())
		}
	}
}
