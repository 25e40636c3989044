package phihpl

import (
	"fmt"
	"strings"

	"phihpl/internal/hpl"
	"phihpl/internal/machine"
	"phihpl/internal/offload"
	"phihpl/internal/perfmodel"
	"phihpl/internal/simlu"
	"phihpl/internal/trace"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	// Run produces the experiment's rows/series as printable text.
	Run func() string
}

// Experiments returns all experiment runners in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: system configurations", Table1},
		{"table2", "Table II: SGEMM/DGEMM efficiency vs k (M=N=28000)", Table2},
		{"fig4", "Figure 4: native DGEMM vs matrix size", Fig4},
		{"fig6", "Figure 6: native Linpack vs problem size", Fig6},
		{"fig7", "Figure 7: LU execution Gantt charts (5K)", Fig7},
		{"fig8", "Figure 8: hybrid look-ahead scheme timelines", Fig8},
		{"fig9", "Figure 9: hybrid HPL iteration profile (2x2)", Fig9},
		{"fig11", "Figure 11: offload DGEMM vs matrix size", Fig11},
		{"table3", "Table III: node- and cluster-level HPL", Table3},
		{"energy", "Section VII: energy efficiency (GFLOPS/W)", Energy},
		{"ablations", "Design-choice ablations (DESIGN.md)", Ablations},
	}
}

// FindExperiment returns the runner with the given id, or nil.
func FindExperiment(id string) *Experiment {
	for _, e := range Experiments() {
		if e.ID == id {
			e := e
			return &e
		}
	}
	return nil
}

// Table1 prints the hardware configurations (Table I).
func Table1() string {
	var b strings.Builder
	knc := machine.KnightsCorner()
	snb := machine.SandyBridgeEP()
	fmt.Fprintf(&b, "%-28s %18s %18s\n", "", snb.Name, knc.Name)
	row := func(label, sv, kv string) { fmt.Fprintf(&b, "%-28s %18s %18s\n", label, sv, kv) }
	row("Sockets x Cores x SMT",
		fmt.Sprintf("%dx%dx%d", snb.Sockets, snb.CoresPerSocket, snb.ThreadsPerCore),
		fmt.Sprintf("%dx%dx%d", knc.Sockets, knc.CoresPerSocket, knc.ThreadsPerCore))
	row("Clock (GHz)", fmt.Sprintf("%.1f", snb.ClockGHz), fmt.Sprintf("%.1f", knc.ClockGHz))
	row("SP GFLOPS", fmt.Sprintf("%.0f", snb.PeakSPGFLOPS()), fmt.Sprintf("%.0f", knc.PeakSPGFLOPS()))
	row("DP GFLOPS", fmt.Sprintf("%.0f", snb.PeakDPGFLOPS()), fmt.Sprintf("%.0f", knc.PeakDPGFLOPS()))
	row("L1/L2 per core (KB)",
		fmt.Sprintf("%d/%d", snb.L1Bytes/1024, snb.L2Bytes/1024),
		fmt.Sprintf("%d/%d", knc.L1Bytes/1024, knc.L2Bytes/1024))
	row("STREAM BW (GB/s)", fmt.Sprintf("%.0f", snb.StreamBW/1e9), fmt.Sprintf("%.0f", knc.StreamBW/1e9))
	pcie := machine.DefaultPCIe()
	row("PCIe BW (GB/s)", "-", fmt.Sprintf("%.0f", pcie.RawBW/1e9))
	return b.String()
}

// Table2 regenerates Table II: SGEMM and DGEMM performance and efficiency
// as a function of k for M = N = 28000.
func Table2() string {
	m := perfmodel.NewKNC()
	var b strings.Builder
	fmt.Fprintf(&b, "%6s | %12s %12s | %12s %12s\n", "k",
		"SGEMM eff%", "SGEMM GF", "DGEMM eff%", "DGEMM GF")
	for _, k := range []int{120, 180, 240, 300, 340, 400} {
		fmt.Fprintf(&b, "%6d | %12.1f %12.0f | %12.1f %12.0f\n", k,
			m.SgemmEff(28000, 28000, k)*100, m.SgemmGFLOPS(28000, 28000, k),
			m.DgemmEff(28000, 28000, k)*100, m.DgemmGFLOPS(28000, 28000, k))
	}
	return b.String()
}

// Fig4 regenerates Figure 4: DGEMM performance vs. matrix size on Sandy
// Bridge (MKL) and Knights Corner (outer-product kernel with and without
// packing overhead, k=300).
func Fig4() string {
	knc := perfmodel.NewKNC()
	snb := perfmodel.NewSNB()
	var b strings.Builder
	fmt.Fprintf(&b, "%7s | %10s | %12s | %14s | %9s\n",
		"N", "SNB GF", "KNC kern GF", "KNC packed GF", "pack ov%")
	for n := 1000; n <= 28000; n += 1000 {
		kern := knc.DgemmKernelEff(n, n, 300) * knc.Arch.ComputePeakDPGFLOPS()
		packed := knc.DgemmEff(n, n, 300) * knc.Arch.ComputePeakDPGFLOPS()
		host := snb.DgemmEff(n) * snb.Arch.PeakDPGFLOPS()
		fmt.Fprintf(&b, "%7d | %10.1f | %12.1f | %14.1f | %9.2f\n",
			n, host, kern, packed, perfmodel.PackOverhead(n)*100)
	}
	return b.String()
}

// Fig6 regenerates Figure 6: native Linpack performance vs. problem size —
// static look-ahead vs. dynamic scheduling on the simulated Knights
// Corner, with the MKL host Linpack and the DGEMM roofline for context.
func Fig6() string {
	knc := perfmodel.NewKNC()
	snb := perfmodel.NewSNB()
	var b strings.Builder
	fmt.Fprintf(&b, "%7s | %10s | %12s | %12s | %12s\n",
		"N", "SNB HPL GF", "KNC static", "KNC dynamic", "KNC DGEMM")
	for _, n := range []int{1000, 2000, 4000, 5000, 8000, 10000, 15000, 20000, 25000, 30000} {
		st := simlu.Static(simlu.Config{N: n})
		dy := simlu.Dynamic(simlu.Config{N: n})
		roof := knc.DgemmGFLOPS(n, n, 300)
		fmt.Fprintf(&b, "%7d | %10.1f | %12.1f | %12.1f | %12.1f\n",
			n, snb.HPLGFLOPS(n), st.GFLOPS, dy.GFLOPS, roof)
	}
	return b.String()
}

// Fig7 regenerates Figure 7: ASCII Gantt charts of the LU execution
// profile for the 5K problem, static look-ahead vs. dynamic scheduling.
func Fig7() string {
	var b strings.Builder
	var sta trace.Recorder
	s := simlu.Static(simlu.Config{N: 5120, NB: 256, Trace: &sta})
	fmt.Fprintf(&b, "static look-ahead, N=5120: %.1f GFLOPS (%.1f%%)\n", s.GFLOPS, s.Eff*100)
	b.WriteString(sta.Gantt(100))
	b.WriteString(sta.ProfileTable(0))
	b.WriteString("\n")
	var dyn trace.Recorder
	d := simlu.Dynamic(simlu.Config{N: 5120, NB: 256, Trace: &dyn})
	fmt.Fprintf(&b, "dynamic scheduling, N=5120: %.1f GFLOPS (%.1f%%)\n", d.GFLOPS, d.Eff*100)
	b.WriteString(dyn.Gantt(100))
	b.WriteString(dyn.ProfileTable(0))
	return b.String()
}

// Fig8 regenerates Figure 8: the host and card lanes of the first three
// iterations under each look-ahead scheme, drawn from the critical path
// the hybrid model prices for one node with one card (N = 84000).
func Fig8() string {
	var b strings.Builder
	for _, mode := range []hpl.LookaheadMode{hpl.LookaheadNone, hpl.LookaheadBasic, hpl.LookaheadPipelined} {
		var full, head trace.Recorder
		hpl.Simulate(hpl.SimConfig{N: 84000, Cards: 1, Lookahead: mode, Trace: &full})
		for _, s := range full.Spans() {
			if s.Iter < 3 {
				head.Add(s.Worker, s.Name, s.Iter, s.Start, s.End)
			}
		}
		fmt.Fprintf(&b, "look-ahead: %s (lanes: 0=host, 1=card)\n%s\n", mode, head.Gantt(100))
	}
	return b.String()
}

// Fig9 regenerates Figure 9: the per-iteration execution profile of
// multi-node (2x2) hybrid HPL with and without the swapping pipeline, and
// the per-iteration saving (Figure 9c).
func Fig9() string {
	var b strings.Builder
	var basic, pipe trace.Recorder
	rb := hpl.Simulate(hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 2,
		Lookahead: hpl.LookaheadBasic, Trace: &basic})
	rp := hpl.Simulate(hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 2,
		Lookahead: hpl.LookaheadPipelined, Trace: &pipe})
	fmt.Fprintf(&b, "basic look-ahead:     %.2f TFLOPS (%.1f%%), card idle %.1f%%\n",
		rb.TFLOPS, rb.Eff*100, rb.CardIdleFrac*100)
	fmt.Fprintf(&b, "pipelined look-ahead: %.2f TFLOPS (%.1f%%), card idle %.1f%%\n\n",
		rp.TFLOPS, rp.Eff*100, rp.CardIdleFrac*100)

	bi, pi := basic.IterTotals(), pipe.IterTotals()
	fmt.Fprintf(&b, "%6s | %10s %10s %10s | %10s %10s | %8s\n",
		"iter", "dgemm(s)", "exposed-b", "exposed-p", "iter-b(s)", "iter-p(s)", "saved%")
	step := len(bi) / 12
	if step < 1 {
		step = 1
	}
	sum := func(m map[string]float64) float64 {
		s := 0.0
		for _, v := range m {
			s += v
		}
		return s
	}
	for i := 0; i < len(bi) && i < len(pi); i += step {
		dg := bi[i]["DGEMM"]
		eb := sum(bi[i]) - dg
		ep := sum(pi[i]) - pi[i]["DGEMM"]
		tb := dg + eb
		tp := pi[i]["DGEMM"] + ep
		saved := 0.0
		if tb > 0 {
			saved = (tb - tp) / tb * 100
		}
		fmt.Fprintf(&b, "%6d | %10.3f %10.3f %10.3f | %10.3f %10.3f | %8.1f\n",
			i, dg, eb, ep, tb, tp, saved)
	}
	return b.String()
}

// Fig11 regenerates Figure 11: offload DGEMM performance vs. matrix size
// for one and two coprocessors (trailing-update shapes, Kt = 1200).
func Fig11() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s | %10s %7s %6s | %10s %7s %6s\n",
		"M=N", "1card GF", "eff%", "tile", "2card GF", "eff%", "tile")
	for _, m := range []int{10000, 20000, 30000, 40000, 50000, 60000, 70000, 82000} {
		r1 := offload.Simulate(m, m, offload.SimConfig{Cards: 1})
		r2 := offload.Simulate(m, m, offload.SimConfig{Cards: 2})
		fmt.Fprintf(&b, "%7d | %10.1f %7.1f %6d | %10.1f %7.1f %6d\n",
			m, r1.GFLOPS, r1.Eff*100, r1.Mt, r2.GFLOPS, r2.Eff*100, r2.Mt)
	}
	return b.String()
}

// Table3 regenerates Table III: achieved performance at node and cluster
// level for the paper's Knights Corner and host-memory configurations.
func Table3() string {
	rows := []struct {
		label string
		cfg   hpl.SimConfig
	}{
		{"Sandy Bridge EP, 64GB", hpl.SimConfig{N: 84000, P: 1, Q: 1, Cards: 0}},
		{"Sandy Bridge EP, 64GB", hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 0}},
		{"no pipeline, 1 card, 64GB", hpl.SimConfig{N: 84000, P: 1, Q: 1, Cards: 1, Lookahead: hpl.LookaheadBasic}},
		{"pipeline, 1 card, 64GB", hpl.SimConfig{N: 84000, P: 1, Q: 1, Cards: 1, Lookahead: hpl.LookaheadPipelined}},
		{"no pipeline, 1 card, 64GB", hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: hpl.LookaheadBasic}},
		{"pipeline, 1 card, 64GB", hpl.SimConfig{N: 168000, P: 2, Q: 2, Cards: 1, Lookahead: hpl.LookaheadPipelined}},
		{"no pipeline, 1 card, 64GB", hpl.SimConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: hpl.LookaheadBasic}},
		{"pipeline, 1 card, 64GB", hpl.SimConfig{N: 825600, P: 10, Q: 10, Cards: 1, Lookahead: hpl.LookaheadPipelined}},
		{"no pipeline, 2 cards, 64GB", hpl.SimConfig{N: 84000, P: 1, Q: 1, Cards: 2, Lookahead: hpl.LookaheadBasic}},
		{"pipeline, 2 cards, 64GB", hpl.SimConfig{N: 84000, P: 1, Q: 1, Cards: 2, Lookahead: hpl.LookaheadPipelined}},
		{"no pipeline, 2 cards, 64GB", hpl.SimConfig{N: 166800, P: 2, Q: 2, Cards: 2, Lookahead: hpl.LookaheadBasic}},
		{"pipeline, 2 cards, 64GB", hpl.SimConfig{N: 166800, P: 2, Q: 2, Cards: 2, Lookahead: hpl.LookaheadPipelined}},
		{"no pipeline, 2 cards, 64GB", hpl.SimConfig{N: 822000, P: 10, Q: 10, Cards: 2, Lookahead: hpl.LookaheadBasic}},
		{"pipeline, 2 cards, 64GB", hpl.SimConfig{N: 822000, P: 10, Q: 10, Cards: 2, Lookahead: hpl.LookaheadPipelined}},
		{"pipeline, 1 card, 128GB", hpl.SimConfig{N: 242400, P: 2, Q: 2, Cards: 1, HostMemGiB: 128, Lookahead: hpl.LookaheadPipelined}},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s | %6s | %2s | %2s | %8s | %6s\n", "System", "N", "P", "Q", "TFLOPS", "Eff%")
	for _, r := range rows {
		res := hpl.Simulate(r.cfg)
		fmt.Fprintf(&b, "%-28s | %5dK | %2d | %2d | %8.2f | %6.1f\n",
			r.label, r.cfg.N/1000, r.cfg.P, r.cfg.Q, res.TFLOPS, res.Eff*100)
	}
	return b.String()
}
