package machine

import (
	"math"
	"strings"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKnightsCornerTableI(t *testing.T) {
	k := KnightsCorner()
	if k.Cores() != 61 {
		t.Errorf("cores = %d, want 61", k.Cores())
	}
	if k.Threads() != 244 {
		t.Errorf("threads = %d, want 244", k.Threads())
	}
	if k.DPLanes() != 8 || k.SPLanes() != 16 {
		t.Errorf("lanes = %d/%d, want 8/16", k.DPLanes(), k.SPLanes())
	}
	// Table I: 1074 DP GFLOPS, 2148 SP GFLOPS.
	if !near(k.PeakDPGFLOPS(), 1074, 1.0) {
		t.Errorf("peak DP = %.1f, want ~1074", k.PeakDPGFLOPS())
	}
	if !near(k.PeakSPGFLOPS(), 2148, 2.0) {
		t.Errorf("peak SP = %.1f, want ~2148", k.PeakSPGFLOPS())
	}
	// 60-core compute peak used for native efficiency: 1056 GFLOPS.
	if !near(k.ComputePeakDPGFLOPS(), 1056, 0.1) {
		t.Errorf("compute peak DP = %.1f, want 1056", k.ComputePeakDPGFLOPS())
	}
	if k.L2Bytes != 512*1024 {
		t.Errorf("L2 = %d, want 512 KiB", k.L2Bytes)
	}
}

func TestSandyBridgeTableI(t *testing.T) {
	s := SandyBridgeEP()
	if s.Cores() != 16 || s.Threads() != 32 {
		t.Errorf("cores/threads = %d/%d, want 16/32", s.Cores(), s.Threads())
	}
	// Table I: 333 DP GFLOPS, 666 SP GFLOPS.
	if !near(s.PeakDPGFLOPS(), 333, 1.0) {
		t.Errorf("peak DP = %.1f, want ~333", s.PeakDPGFLOPS())
	}
	if !near(s.PeakSPGFLOPS(), 666, 2.0) {
		t.Errorf("peak SP = %.1f, want ~666", s.PeakSPGFLOPS())
	}
	if s.ComputePeakDPGFLOPS() != s.PeakDPGFLOPS() {
		t.Errorf("host reserves no cores")
	}
}

func TestPaperEfficiencyDenominators(t *testing.T) {
	k := KnightsCorner()
	// 944 GFLOPS DGEMM corresponds to 89.4% of the 60-core peak.
	eff := 944 / k.ComputePeakDPGFLOPS() * 100
	if !near(eff, 89.4, 0.2) {
		t.Errorf("944 GFLOPS => %.1f%%, want ~89.4%%", eff)
	}
	// 832 GFLOPS native Linpack corresponds to ~78.8%.
	eff = 832 / k.ComputePeakDPGFLOPS() * 100
	if !near(eff, 78.8, 0.3) {
		t.Errorf("832 GFLOPS => %.1f%%, want ~78.8%%", eff)
	}
	// 917 GFLOPS offload DGEMM is 85.4% of the full 61-core peak.
	eff = 917 / k.PeakDPGFLOPS() * 100
	if !near(eff, 85.4, 0.2) {
		t.Errorf("917 GFLOPS => %.1f%%, want ~85.4%%", eff)
	}
}

func TestNodePeaks(t *testing.T) {
	// Paper Section V-C: 1.4 TFLOPS with one card, 2.48 with two.
	n1 := HybridNode(1, 64)
	if !near(n1.PeakDPGFLOPS(), 1406, 3) {
		t.Errorf("1-card node peak = %.0f, want ~1406", n1.PeakDPGFLOPS())
	}
	n2 := HybridNode(2, 64)
	if !near(n2.PeakDPGFLOPS(), 2480, 5) {
		t.Errorf("2-card node peak = %.0f, want ~2480", n2.PeakDPGFLOPS())
	}
	if n1.MemBytes() != 64<<30 {
		t.Errorf("node mem = %d, want 64 GiB", n1.MemBytes())
	}
	if HybridNode(1, 0).MemBytes() != SandyBridgeEP().DRAMBytes {
		t.Errorf("zero hostMem should fall back to arch DRAM")
	}
}

func TestClusterPeak(t *testing.T) {
	// 100 nodes * ~1.4 TF: Table III reports 107 TFLOPS at 76.1% =>
	// peak ~140.6 TF.
	peak := 100 * HybridNode(1, 64).PeakDPGFLOPS()
	if !near(peak/1000, 140.6, 0.5) {
		t.Errorf("cluster peak = %.1f TF, want ~140.6", peak/1000)
	}
	eff := 107000 / peak * 100
	if !near(eff, 76.1, 0.5) {
		t.Errorf("107 TF => %.1f%%, want ~76.1%%", eff)
	}
}

func TestRatioCardsToHost(t *testing.T) {
	// Section V-A: two cards deliver roughly six times the host flops.
	k := KnightsCorner()
	s := SandyBridgeEP()
	ratio := 2 * k.PeakDPGFLOPS() / s.PeakDPGFLOPS()
	if ratio < 6 || ratio > 7 {
		t.Errorf("2-card/host ratio = %.2f, want ~6.5", ratio)
	}
}

func TestString(t *testing.T) {
	s := KnightsCorner().String()
	if !strings.Contains(s, "Knights Corner") || !strings.Contains(s, "512-bit") {
		t.Errorf("String() = %q", s)
	}
}

func TestFlopsPerCycle(t *testing.T) {
	k := KnightsCorner()
	if k.DPFlopsPerCycle() != 16 {
		t.Errorf("KNC DP flops/cycle = %v, want 16", k.DPFlopsPerCycle())
	}
	s := SandyBridgeEP()
	if s.DPFlopsPerCycle() != 8 {
		t.Errorf("SNB DP flops/cycle = %v, want 8", s.DPFlopsPerCycle())
	}
}

func TestCyclesPerSecond(t *testing.T) {
	if KnightsCorner().CyclesPerSecond() != 1.1e9 {
		t.Errorf("KNC clock wrong")
	}
}
