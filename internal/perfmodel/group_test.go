package perfmodel

import (
	"math"
	"testing"
)

func TestUpdateDgemmTime(t *testing.T) {
	m := NewKNC()
	// Degenerate inputs.
	if m.UpdateDgemmTime(0, 10, 10, 4) != 0 || m.UpdateDgemmTime(10, 10, 10, 0) != 0 {
		t.Error("degenerate update time")
	}
	// Doubling cores halves time (same efficiency model).
	t1 := m.UpdateDgemmTime(20000, 300, 300, 15)
	t2 := m.UpdateDgemmTime(20000, 300, 300, 30)
	if r := t1 / t2; math.Abs(r-2) > 1e-9 {
		t.Errorf("core scaling = %v, want 2", r)
	}
	// Wider updates are more efficient per flop (narrow-update penalty).
	perFlop := func(cols int) float64 {
		return m.UpdateDgemmTime(20000, cols, 300, 60) / float64(cols)
	}
	if !(perFlop(1200) < perFlop(300)) {
		t.Error("narrow-update penalty missing")
	}
	// The full native LU rate reconstruction: big update at 60 cores
	// should sustain >800 GFLOPS.
	flops := 2.0 * 20000 * 1200 * 300
	rate := flops / m.UpdateDgemmTime(20000, 1200, 300, 60) / 1e9
	if rate < 800 || rate > 1000 {
		t.Errorf("update rate = %.1f GFLOPS", rate)
	}
}

func TestTrsmTimeGroup(t *testing.T) {
	m := NewKNC()
	if m.TrsmTimeGroup(0, 5, 4) != 0 || m.TrsmTimeGroup(5, 5, 0) != 0 {
		t.Error("degenerate trsm time")
	}
	// Matches the integer-cores variant.
	a := m.TrsmTimeGroup(300, 5000, 60)
	b := m.TrsmTime(300, 5000, 60)
	if math.Abs(a-b)/b > 1e-12 {
		t.Errorf("group/int trsm mismatch: %v vs %v", a, b)
	}
}

func TestSwapTimeGroup(t *testing.T) {
	m := NewKNC()
	if m.SwapTimeGroup(0, 5, 1) != 0 || m.SwapTimeGroup(5, 5, 0) != 0 {
		t.Error("degenerate swap time")
	}
	// Full share equals the plain SwapTime; half share doubles it.
	full := m.SwapTimeGroup(300, 10000, 1)
	if math.Abs(full-m.SwapTime(300, 10000)) > 1e-15 {
		t.Error("full-share swap mismatch")
	}
	if r := m.SwapTimeGroup(300, 10000, 0.5) / full; math.Abs(r-2) > 1e-12 {
		t.Errorf("share scaling = %v", r)
	}
}

func TestLossClamps(t *testing.T) {
	m := NewKNC()
	// Tiny updates: sizeLoss clamps at 0.5, efficiency stays positive.
	if e := m.DgemmKernelEff(10, 10, 300); e <= 0 || e > 0.6 {
		t.Errorf("tiny kernel eff = %v", e)
	}
	// Extreme k: spill penalty clamps rather than going negative.
	if e := m.DgemmEff(28000, 28000, 5000); e <= 0 {
		t.Errorf("huge-k eff = %v, want positive (clamped spill)", e)
	}
	if s := l2Spill(100000, 8, 512*1024); s < 0.09 || s > 0.11 {
		t.Errorf("spill clamp = %v, want 0.1", s)
	}
	if sizeLoss(0) != 0 {
		t.Error("sizeLoss(0)")
	}
}

func TestSNBCostEdges(t *testing.T) {
	s := NewSNB()
	if s.PanelTime(100, 10, 0) <= 0 {
		t.Error("panel threads clamp to 1")
	}
	// Panel rate caps at 48 GFLOPS.
	if s.PanelTime(10000, 300, 16) != s.PanelTime(10000, 300, 64) {
		t.Error("host panel rate should cap")
	}
	if s.HPLEff(-5) != 0 {
		t.Error("negative n")
	}
	// Extremely small n clamps HPLEff at 0 rather than going negative.
	if e := s.HPLEff(10); e != 0 {
		t.Errorf("HPLEff(10) = %v, want clamp to 0", e)
	}
}

func TestKNCCostEdges(t *testing.T) {
	m := NewKNC()
	if m.PanelTime(100, 10, 0) <= 0 {
		t.Error("panel threads clamp")
	}
	if PanelFlops(3, 0) != 0 {
		t.Error("PanelFlops nb=0")
	}
	// PanelFlops handles nb > m gracefully (rows clamp at zero).
	if f := PanelFlops(2, 10); f <= 0 {
		t.Errorf("wide panel flops = %v", f)
	}
}
