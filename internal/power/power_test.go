package power

import (
	"testing"

	"phihpl/internal/hpl"
	"phihpl/internal/simlu"
)

func TestBudgets(t *testing.T) {
	b := Default()
	if b.HybridNodeW(1) != 230+300+120 {
		t.Errorf("hybrid 1-card = %v", b.HybridNodeW(1))
	}
	if b.HybridNodeW(2) != 230+600+120 {
		t.Errorf("hybrid 2-card = %v", b.HybridNodeW(2))
	}
	if b.NativeNodeW(1) != 30+300+120 {
		t.Errorf("native 1-card = %v", b.NativeNodeW(1))
	}
	if b.HostOnlyW() != 350 {
		t.Errorf("host-only = %v", b.HostOnlyW())
	}
	if Efficiency(100, 0) != 0 {
		t.Error("zero watts")
	}
	if (Scenario{GFLOPS: 500, Watts: 250}).PerWatt() != 2 {
		t.Error("PerWatt")
	}
}

func TestPaperConclusionEnergyOrdering(t *testing.T) {
	// Section VII: the hybrid node beats the host on GFLOPS/W, but a
	// native-on-cards configuration (host asleep) beats the hybrid —
	// "hybrid implementation [is] less energy efficient compared to the
	// fully-native multi-node implementation".
	b := Default()
	host := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 0}).TFLOPS * 1000
	hybrid := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadPipelined}).TFLOPS * 1000
	native := simlu.Dynamic(simlu.Config{N: 30000}).GFLOPS

	s := Compare(b, host, hybrid, native, 1)
	if len(s) != 3 {
		t.Fatal("want 3 scenarios")
	}
	hostPW, hybridPW, nativePW := s[0].PerWatt(), s[1].PerWatt(), s[2].PerWatt()
	if !(hybridPW > hostPW) {
		t.Errorf("hybrid (%.2f GF/W) should beat host-only (%.2f)", hybridPW, hostPW)
	}
	if !(nativePW > hybridPW) {
		t.Errorf("native-on-cards (%.2f GF/W) should beat hybrid (%.2f) — the paper's conclusion", nativePW, hybridPW)
	}
}

func TestTwoCardScaling(t *testing.T) {
	b := Default()
	// Adding a second card improves hybrid GFLOPS/W (the card is more
	// efficient than the host+platform base).
	hy1 := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadPipelined}).TFLOPS * 1000
	hy2 := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 2, Lookahead: hpl.LookaheadPipelined}).TFLOPS * 1000
	if Efficiency(hy2, b.HybridNodeW(2)) <= Efficiency(hy1, b.HybridNodeW(1)) {
		t.Errorf("second card should raise GFLOPS/W: %.2f vs %.2f",
			Efficiency(hy2, b.HybridNodeW(2)), Efficiency(hy1, b.HybridNodeW(1)))
	}
}
