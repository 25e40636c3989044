package phihpl

import (
	"fmt"
	"strings"

	"phihpl/internal/hpl"
	"phihpl/internal/power"
	"phihpl/internal/simlu"
)

// Energy regenerates the paper's concluding energy-efficiency argument
// (Section VII): GFLOPS/W of a CPU-only node, the hybrid node, and the
// future-work configuration running Linpack natively on the cards with
// the host CPUs in deep sleep.
func Energy() string {
	b := power.Default()
	host := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 0}).TFLOPS * 1000
	hy1 := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: hpl.LookaheadPipelined}).TFLOPS * 1000
	hy2 := hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 2, Lookahead: hpl.LookaheadPipelined}).TFLOPS * 1000
	native := simlu.Dynamic(simlu.Config{N: 30000}).GFLOPS

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %10s %8s %10s\n", "scenario", "GFLOPS", "watts", "GFLOPS/W")
	row := func(s power.Scenario) {
		fmt.Fprintf(&sb, "%-34s %10.0f %8.0f %10.2f\n", s.Name, s.GFLOPS, s.Watts, s.PerWatt())
	}
	for _, s := range power.Compare(b, host, hy1, native, 1) {
		row(s)
	}
	row(power.Scenario{Name: "hybrid HPL, 2 cards", GFLOPS: hy2, Watts: b.HybridNodeW(2)})
	row(power.Scenario{Name: "native on 2 cards (host asleep)", GFLOPS: 2 * native, Watts: b.NativeNodeW(2)})
	sb.WriteString("\nSection VII: the host is several times slower than a card at comparable\n")
	sb.WriteString("power, so native-on-cards beats the hybrid configuration on GFLOPS/W.\n")
	return sb.String()
}
