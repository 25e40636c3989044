// Package simhybrid is an event-driven simulation of the hybrid HPL node
// pipeline of Section V (Figure 8): the host lane (panel factorization,
// row swapping, DTRSM, broadcasts), the coprocessor lane (offload DGEMM)
// and the PCIe lane, scheduled under the paper's three look-ahead schemes.
//
// Where internal/hpl prices iterations with closed-form phase sums, this
// package builds the explicit timeline from virtual-time resource
// reservations — the host and card lanes are sim.Resources, phases are
// reservations on them, and the
// overlap structure of Figure 8a/8b/8c emerges from the reservation
// dependencies. The totals cross-validate the analytic model (tests assert
// agreement within a few percent), and the lanes render as the Figure 8
// timeline diagrams.
package simhybrid

import (
	"phihpl/internal/cluster"
	"phihpl/internal/hpl"
	"phihpl/internal/machine"
	"phihpl/internal/offload"
	"phihpl/internal/perfmodel"
	"phihpl/internal/sim"
	"phihpl/internal/trace"
)

// Config mirrors the hybrid HPL configuration.
type Config struct {
	N, NB int
	P, Q  int
	Cards int
	Mode  hpl.LookaheadMode
	// MaxIters truncates the run (0 = all iterations) — Figure 8 only
	// needs a few iterations to show the overlap structure.
	MaxIters int
	// Trace receives lane spans: worker 0 = host, 1 = card, 2 = PCIe-ish
	// exposed transfer/broadcast work.
	Trace *trace.Recorder
}

// Result reports the event-driven run.
type Result struct {
	Seconds  float64
	TFLOPS   float64
	Eff      float64
	CardBusy float64
	HostBusy float64
}

// lanes in the trace.
const (
	laneHost = 0
	laneCard = 1
	laneComm = 2
)

// Simulate builds the explicit timeline.
func Simulate(cfg Config) Result {
	if cfg.NB < 1 {
		cfg.NB = 1200
	}
	if cfg.P < 1 {
		cfg.P = 1
	}
	if cfg.Q < 1 {
		cfg.Q = 1
	}
	if cfg.Cards < 1 {
		cfg.Cards = 1
	}

	snb := perfmodel.NewSNB()
	net := cluster.NewCostModel()
	off := offload.SimConfig{Cards: cfg.Cards}

	var (
		host sim.Resource // the host's kernel lane
		card sim.Resource // the coprocessor(s)
		comm sim.Resource // network/PCIe exposed work
	)
	record := func(lane int, name string, iter int, start, end float64) {
		if cfg.Trace != nil && end > start {
			cfg.Trace.Add(lane, name, iter, start, end)
		}
	}

	hostRate := 0.78 * snb.DgemmEff(20000) * snb.Arch.PeakDPGFLOPS() * 1e9
	hostPeak := snb.Arch.PeakDPGFLOPS() * 1e9

	n, nb := cfg.N, cfg.NB
	np := n / nb
	if np < 1 {
		np = 1
	}
	iters := np
	if cfg.MaxIters > 0 && cfg.MaxIters < iters {
		iters = cfg.MaxIters
	}

	// panelReady[i] = time panel i's factorization+broadcast completes.
	panelReady := make([]float64, np+1)

	// Iteration 0's panel is not overlapped with anything.
	{
		rows := n / cfg.P
		d := snb.PanelTime(rows, nb, snb.Arch.Threads()) + net.PivotAllreduce(nb, cfg.P)
		bc := net.Bcast(8*float64(rows)*float64(nb), cfg.Q)
		s, e := host.Reserve(0, d)
		record(laneHost, "panel", 0, s, e)
		s2, e2 := comm.Reserve(e, bc)
		record(laneComm, "Lbcast", 0, s2, e2)
		panelReady[0] = e2
	}

	now := 0.0
	for i := 0; i < iters; i++ {
		mRem := n - (i+1)*nb
		mLoc := mRem / cfg.P
		nLoc := mRem / cfg.Q

		start := panelReady[i]
		if now > start {
			start = now
		}

		var tSwap, tTrsm, tUB float64
		if nLoc > 0 {
			tSwap = 2 * 8 * float64(nb) * float64(nLoc) / (0.25 * snb.Arch.StreamBW)
			tSwap += net.SwapExchange(8*float64(nb)*float64(nLoc), cfg.P)
			tTrsm = float64(nb) * float64(nb) * float64(nLoc) / (0.30 * hostPeak)
			tUB = net.Bcast(8*float64(nb)*float64(nLoc), cfg.P)
		}
		var tUpd float64
		if mLoc > 0 && nLoc > 0 {
			cardRate := offload.SteadyRate(mLoc, nLoc, off) * 1e9
			tUpd = 2 * float64(mLoc) * float64(nLoc) * float64(nb) / (cardRate + hostRate)
		}

		// Next panel phase (overlappable under look-ahead).
		nextPanel := func(at float64) float64 {
			if i+1 >= np {
				return at
			}
			rows := (n - (i+1)*nb) / cfg.P
			d := snb.PanelTime(rows, nb, snb.Arch.Threads()) + net.PivotAllreduce(nb, cfg.P)
			bc := net.Bcast(8*float64(rows)*float64(nb), cfg.Q)
			s, e := host.Reserve(at, d)
			record(laneHost, "panel", i+1, s, e)
			s2, e2 := comm.Reserve(e, bc)
			record(laneComm, "Lbcast", i+1, s2, e2)
			return e2
		}

		switch cfg.Mode {
		case hpl.LookaheadNone:
			// Figure 8a: strictly serial; the card idles outside DGEMM.
			s, e := host.Reserve(start, tSwap)
			record(laneHost, "swap", i, s, e)
			s, e = host.Reserve(e, tTrsm)
			record(laneHost, "DTRSM", i, s, e)
			s2, e2 := comm.Reserve(e, tUB)
			record(laneComm, "Ubcast", i, s2, e2)
			s3, e3 := card.Reserve(e2, tUpd)
			record(laneCard, "DGEMM", i, s3, e3)
			now = e3
			panelReady[i+1] = nextPanel(e3)

		case hpl.LookaheadBasic:
			// Figure 8b: the next panel overlaps the card's DGEMM, but
			// swap/DTRSM/Ubcast precede the update and expose card idle.
			s, e := host.Reserve(start, tSwap)
			record(laneHost, "swap", i, s, e)
			s, e = host.Reserve(e, tTrsm)
			record(laneHost, "DTRSM", i, s, e)
			s2, e2 := comm.Reserve(e, tUB)
			record(laneComm, "Ubcast", i, s2, e2)
			s3, e3 := card.Reserve(e2, tUpd)
			record(laneCard, "DGEMM", i, s3, e3)
			panelReady[i+1] = nextPanel(e2) // host is free during DGEMM
			now = e3
			if panelReady[i+1] > now {
				now = panelReady[i+1]
			}

		default: // LookaheadPipelined
			// Figure 8c: swap/DTRSM/Ubcast are chunked; the card starts
			// after the first chunk and the rest pipeline underneath.
			const chunks = 8
			chunkCost := (tSwap + tTrsm + tUB) / chunks
			overhead := 1.2e-3
			cardStart := start
			var hostEnd float64
			for c := 0; c < chunks; c++ {
				s, e := host.Reserve(cardStart, chunkCost+overhead)
				record(laneHost, "swap", i, s, e)
				if c == 0 {
					cardStart = e
				}
				hostEnd = e
			}
			s3, e3 := card.Reserve(cardStart, tUpd)
			record(laneCard, "DGEMM", i, s3, e3)
			panelReady[i+1] = nextPanel(hostEnd)
			now = e3
			if panelReady[i+1] > now {
				now = panelReady[i+1]
			}
			if hostEnd > now {
				now = hostEnd
			}
		}
	}

	// When truncated, scale flops to the simulated prefix.
	flops := 0.0
	for i := 0; i < iters; i++ {
		mRem := float64(n - (i+1)*nb)
		flops += 2 * (mRem*mRem*float64(nb) + float64(nb)*float64(nb)*mRem)
	}
	node := machine.HybridNode(cfg.Cards, 64)
	peak := float64(cfg.P*cfg.Q) * node.PeakDPGFLOPS() * 1e9
	tf := flops / now / 1e12
	return Result{
		Seconds:  now,
		TFLOPS:   tf,
		Eff:      tf * 1e12 / peak,
		CardBusy: card.TotalBusy / now,
		HostBusy: host.TotalBusy / now,
	}
}

// Figure8 renders the first few iterations of each look-ahead scheme as
// lane Gantt charts — the paper's Figure 8 schematic, generated from the
// event-driven timeline.
func Figure8(n, cards int) string {
	out := ""
	for _, mode := range []hpl.LookaheadMode{hpl.LookaheadNone, hpl.LookaheadBasic, hpl.LookaheadPipelined} {
		var rec trace.Recorder
		Simulate(Config{N: n, Cards: cards, Mode: mode, MaxIters: 3, Trace: &rec})
		out += "look-ahead: " + mode.String() + " (lanes: 0=host, 1=card, 2=bcast)\n"
		out += rec.Gantt(100)
		out += "\n"
	}
	return out
}
