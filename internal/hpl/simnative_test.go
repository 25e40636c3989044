package hpl

import (
	"testing"

	"phihpl/internal/power"
)

func TestNativeClusterSingleCardMatchesNativeBallpark(t *testing.T) {
	// A 1x1 native "cluster" at N=30K should land near the native
	// Linpack's ~79% (Figure 6) — same compute model, no fabric.
	r := SimulateNativeCluster(NativeClusterConfig{N: 30000, P: 1, Q: 1})
	if r.Eff < 0.70 || r.Eff > 0.85 {
		t.Errorf("native 1x1 eff = %.3f, want ~0.79", r.Eff)
	}
}

func TestMaxNativeProblemSize(t *testing.T) {
	// One card's 8 GB holds ~30K (the paper's native limit).
	n := MaxNativeProblemSize(1, 1, 300)
	if n < 28000 || n > 31000 {
		t.Errorf("MaxNativeProblemSize(1,1) = %d, want ~30K", n)
	}
	if n%300 != 0 {
		t.Errorf("N must be an NB multiple: %d", n)
	}
	// 4 cards double the side length.
	if n4 := MaxNativeProblemSize(2, 2, 300); n4 < 2*n-600 || n4 > 2*n+600 {
		t.Errorf("4-card bound = %d, want ~%d", n4, 2*n)
	}
	if mathSqrt(-1) != 0 {
		t.Error("sqrt of negative")
	}
}

func TestNativeClusterScales(t *testing.T) {
	// Memory per card caps local problems at ~30K; a 4x4 grid of cards at
	// N=120K keeps 30K per card locally.
	r1 := SimulateNativeCluster(NativeClusterConfig{N: 30000, P: 1, Q: 1})
	r16 := SimulateNativeCluster(NativeClusterConfig{N: 120000, P: 4, Q: 4})
	if r16.TFLOPS < 10*r1.TFLOPS {
		t.Errorf("16 cards should scale: %v vs %v", r16.TFLOPS, r1.TFLOPS)
	}
	// Communication (with the PCIe forwarding penalty) costs efficiency.
	if r16.Eff >= r1.Eff {
		t.Errorf("multi-node native should lose efficiency: %.3f vs %.3f", r16.Eff, r1.Eff)
	}
}

func TestNativeClusterDefaults(t *testing.T) {
	r := SimulateNativeCluster(NativeClusterConfig{N: 10000})
	if r.Config.NB != 300 || r.Config.P != 1 || r.Config.Q != 1 {
		t.Errorf("defaults: %+v", r.Config)
	}
	if r.Seconds <= 0 || r.TFLOPS <= 0 {
		t.Error("degenerate result")
	}
}

func TestFutureWorkEnergyClaim(t *testing.T) {
	// Section VII end-to-end: at the cluster level, native-on-cards
	// delivers more GFLOPS/W than hybrid even though its absolute TFLOPS
	// are lower per node.
	b := power.Default()
	hybrid := Simulate(SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: LookaheadPipelined})
	nNative := MaxNativeProblemSize(2, 2, 300) // card memory caps native N
	native := SimulateNativeCluster(NativeClusterConfig{N: nNative, P: 2, Q: 2})

	hybridPW := power.Efficiency(hybrid.TFLOPS*1000/4, b.HybridNodeW(1))
	nativePW := power.Efficiency(native.TFLOPS*1000/4, b.NativeNodeW(1))
	if nativePW <= hybridPW {
		t.Errorf("native GFLOPS/W %.2f should beat hybrid %.2f", nativePW, hybridPW)
	}
	// And hybrid wins raw per-node performance.
	if hybrid.TFLOPS <= native.TFLOPS {
		t.Errorf("hybrid raw TFLOPS %.2f should beat native %.2f", hybrid.TFLOPS, native.TFLOPS)
	}
}
