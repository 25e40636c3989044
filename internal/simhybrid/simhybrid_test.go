package simhybrid

import (
	"math"
	"strings"
	"testing"

	"phihpl/internal/hpl"
	"phihpl/internal/trace"
)

func TestModeOrdering(t *testing.T) {
	// The event-driven timeline must rank the schemes like Figure 8:
	// none < basic < pipelined.
	none := Simulate(Config{N: 84000, Cards: 1, Mode: hpl.LookaheadNone})
	basic := Simulate(Config{N: 84000, Cards: 1, Mode: hpl.LookaheadBasic})
	pipe := Simulate(Config{N: 84000, Cards: 1, Mode: hpl.LookaheadPipelined})
	if !(none.Seconds > basic.Seconds && basic.Seconds > pipe.Seconds) {
		t.Errorf("ordering broken: %.1f %.1f %.1f", none.Seconds, basic.Seconds, pipe.Seconds)
	}
	if !(none.CardBusy < basic.CardBusy && basic.CardBusy < pipe.CardBusy) {
		t.Errorf("card utilization ordering broken: %.3f %.3f %.3f",
			none.CardBusy, basic.CardBusy, pipe.CardBusy)
	}
}

func TestCrossValidatesAnalyticModel(t *testing.T) {
	// The event-driven totals must agree with internal/hpl's closed-form
	// model within a few percent — they share cost inputs but compose
	// them differently.
	for _, mode := range []hpl.LookaheadMode{hpl.LookaheadBasic, hpl.LookaheadPipelined} {
		ev := Simulate(Config{N: 84000, Cards: 1, Mode: mode})
		an := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: mode})
		rel := math.Abs(ev.Seconds-an.Seconds) / an.Seconds
		if rel > 0.08 {
			t.Errorf("%v: event-driven %.1fs vs analytic %.1fs (%.1f%% apart)",
				mode, ev.Seconds, an.Seconds, rel*100)
		}
	}
}

func TestPipelinedCardGapsAreSmall(t *testing.T) {
	var rec trace.Recorder
	r := Simulate(Config{N: 84000, Cards: 1, Mode: hpl.LookaheadPipelined, Trace: &rec})
	if r.CardBusy < 0.9 {
		t.Errorf("pipelined card busy = %.3f, want > 0.9", r.CardBusy)
	}
	// DGEMM spans exist for every simulated iteration.
	iters := rec.IterTotals()
	nonEmpty := 0
	for _, m := range iters {
		if m["DGEMM"] > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 60 {
		t.Errorf("only %d iterations carry DGEMM spans", nonEmpty)
	}
}

func TestFigure8Rendering(t *testing.T) {
	out := Figure8(84000, 1)
	for _, w := range []string{"look-ahead: none", "look-ahead: basic", "look-ahead: pipelined",
		"D=DGEMM", "P=panel"} {
		if !strings.Contains(out, w) {
			t.Errorf("figure 8 output missing %q", w)
		}
	}
	// Three lane charts, each with at least 3 lanes.
	if strings.Count(out, "legend:") != 3 {
		t.Error("expected three charts")
	}
}

func TestTruncation(t *testing.T) {
	short := Simulate(Config{N: 84000, Cards: 1, Mode: hpl.LookaheadBasic, MaxIters: 3})
	full := Simulate(Config{N: 84000, Cards: 1, Mode: hpl.LookaheadBasic})
	if short.Seconds >= full.Seconds {
		t.Error("truncated run should be shorter")
	}
	if short.TFLOPS <= 0 || short.Eff <= 0 || short.Eff > 1 {
		t.Errorf("truncated metrics: %+v", short)
	}
}

func TestDefaultsAndDeterminism(t *testing.T) {
	a := Simulate(Config{N: 60000, Mode: hpl.LookaheadNone})
	b := Simulate(Config{N: 60000, Mode: hpl.LookaheadNone})
	if a != b {
		t.Error("must be deterministic")
	}
	if a.Seconds <= 0 {
		t.Error("defaults broken")
	}
}
