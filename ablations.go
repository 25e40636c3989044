package phihpl

import (
	"fmt"
	"strings"

	"phihpl/internal/hpl"
	"phihpl/internal/kernels"
	"phihpl/internal/offload"
	"phihpl/internal/simlu"
)

// Ablations regenerates the design-choice ablations DESIGN.md calls out:
// each row isolates one mechanism of the paper and reports the modelled
// cost of removing it.
func Ablations() string {
	var b strings.Builder

	e1 := kernels.LoopEfficiency(kernels.Kernel1)
	e2 := kernels.LoopEfficiency(kernels.Kernel2)
	fmt.Fprintf(&b, "micro-kernel:     Basic Kernel 1 %.2f%% (L1 port-conflict stalls)  vs  Basic Kernel 2 %.2f%% (swizzle holes)\n",
		e1*100, e2*100)

	on := simlu.Dynamic(simlu.Config{N: 5000, MaxGroups: 8})
	off := simlu.Dynamic(simlu.Config{N: 5000, MaxGroups: 8, DisableRegroup: true})
	fmt.Fprintf(&b, "super-stages:     regrouping on %.1f GF  vs  off %.1f GF  (N=5K, -%.0f%%)\n",
		on.GFLOPS, off.GFLOPS, (1-off.GFLOPS/on.GFLOPS)*100)

	master := simlu.Dynamic(simlu.Config{N: 10000, MaxGroups: 8})
	all := simlu.Dynamic(simlu.Config{N: 10000, MaxGroups: 8, AllThreadsContend: true})
	fmt.Fprintf(&b, "scheduler access: master-only %.1f GF  vs  all-threads contend %.1f GF  (N=10K)\n",
		master.GFLOPS, all.GFLOPS)

	auto := offload.Simulate(40000, 40000, offload.SimConfig{Cards: 1})
	forced := offload.Simulate(40000, 40000, offload.SimConfig{Cards: 1, ForceTile: 1200})
	fmt.Fprintf(&b, "tile selection:   run-time (tile %d) %.1f GF  vs  forced 1200 %.1f GF  (M=40K)\n",
		auto.Mt, auto.GFLOPS, forced.GFLOPS)

	none := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadNone})
	basic := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadBasic})
	pipe := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadPipelined})
	fmt.Fprintf(&b, "look-ahead:       none %.1f%%  basic %.1f%%  pipelined %.1f%%  (hybrid, N=84K)\n",
		none.Eff*100, basic.Eff*100, pipe.Eff*100)

	ftOff := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadPipelined})
	ftOn := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadPipelined,
		FTLossRate: 1e-3, FTCheckpointEvery: 8})
	fmt.Fprintf(&b, "fault tolerance:  off %.1f%%  vs  ABFT+ckpt(8)+loss 1e-3 %.1f%%  (FT overhead %.1f%% of run time)\n",
		ftOff.Eff*100, ftOn.Eff*100, ftOn.FTOverheadFrac*100)

	nat := hpl.SimulateNativeCluster(hpl.NativeClusterConfig{
		N: hpl.MaxNativeProblemSize(2, 2, 300), P: 2, Q: 2})
	hyb := hpl.Simulate(hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: hpl.LookaheadPipelined})
	fmt.Fprintf(&b, "future work:      native 2x2 cards %.2f TF (%.1f%% of card peak)  vs  hybrid 2x2 %.2f TF (%.1f%% of node peak)\n",
		nat.TFLOPS, nat.Eff*100, hyb.TFLOPS, hyb.Eff*100)

	return b.String()
}
