// Package perfmodel turns the cycle-level kernel model of internal/kernels
// and the architecture descriptions of internal/machine into the analytic
// performance envelopes the paper's evaluation is built on: DGEMM/SGEMM
// efficiency as a function of the accumulation depth k (Table II) and of
// the matrix size (Figure 4), the packing overhead curve, panel
// factorization / swap / DTRSM cost estimates for the Linpack simulators,
// and the Sandy Bridge (MKL) baselines.
//
// Calibration: the three loss terms on top of the simulated micro-kernel
// ceiling correspond to the overheads Section III-B itemizes — (i) the
// C-tile update epilogue (already in kernels.TileEfficiency), (ii) packing,
// and (iii) scalar work-distribution overhead — plus the L2-spill penalty
// the paper uses to explain the DGEMM dip past k = 340. The constants are
// fixed once here; the Table II test asserts the resulting efficiencies
// match the published table to a few tenths of a percent.
package perfmodel

import (
	"phihpl/internal/kernels"
	"phihpl/internal/machine"
)

// Knights Corner DGEMM loss calibration (see package comment).
const (
	// dpSchedA/k + dpSchedB: scalar overhead of driving the parallel
	// work distribution, amortized over the k-deep inner loop.
	dpSchedA = 4.48
	dpSchedB = 0.0200
	spSchedA = 3.36
	spSchedB = 0.0133
	// l2SpillStart/Coef: linear penalty once the m×k + k×n + m×n working
	// set exceeds 80% of the 512 KB L2 (conflict misses, then capacity).
	l2SpillStart = 0.8
	l2SpillCoef  = 0.07
	// blockM/blockN are the paper's L2 cache-block dimensions
	// ("choosing m=120, n=32 and k=240 results in 1.1 bytes/cycle").
	blockM = 120
	blockN = 32
	// sizeLossC/minDim: small-matrix efficiency loss of the outer-product
	// kernel (edge tiles, cold caches); calibrated to 88% at 5K (Fig. 4).
	sizeLossC = 80.0
	// packC/packExp: packing overhead ~15% at N=1K, <2% at 5K, <0.4% at
	// 17K (Figure 4).
	packC   = 843.0
	packExp = 1.25
)

// KNC models Knights Corner kernel and memory behaviour.
type KNC struct {
	Arch *machine.Arch
	Cfg  kernels.Config
	// tileEff caches kernels.TileEfficiency by k.
	tileEff map[int]float64
}

// NewKNC returns a Knights Corner model with default pipeline parameters.
func NewKNC() *KNC {
	return &KNC{Arch: machine.KnightsCorner(), Cfg: kernels.DefaultConfig(), tileEff: map[int]float64{}}
}

func (m *KNC) tileEfficiency(k int) float64 {
	if e, ok := m.tileEff[k]; ok {
		return e
	}
	e := kernels.TileEfficiency(kernels.Kernel2, k, m.Cfg)
	m.tileEff[k] = e
	return e
}

// l2Spill returns the multiplicative penalty for the L2 working set of an
// elemBytes-precision cache block with depth k.
func l2Spill(k, elemBytes, l2Bytes int) float64 {
	footprint := float64((blockM*k + k*blockN + blockM*blockN) * elemBytes)
	u := footprint / float64(l2Bytes)
	if u <= l2SpillStart {
		return 1
	}
	loss := l2SpillCoef * (u - l2SpillStart)
	if loss > 0.9 {
		loss = 0.9
	}
	return 1 - loss
}

// sizeLoss returns the multiplicative small-size penalty of the
// outer-product kernel for an m×n update (edge tiles, load imbalance over
// the tile grid, cold TLBs). minDim is the smaller of m and n.
func sizeLoss(minDim int) float64 {
	if minDim <= 0 {
		return 0
	}
	l := sizeLossC / float64(minDim)
	if l > 0.5 {
		l = 0.5
	}
	return 1 - l
}

// DgemmKernelEff returns the efficiency (vs. 60-core peak) of the native
// DGEMM outer-product kernel on an m×n update with depth k, *excluding*
// packing — the middle curve of Figure 4.
func (m *KNC) DgemmKernelEff(mDim, nDim, k int) float64 {
	if mDim <= 0 || nDim <= 0 || k <= 0 {
		return 0
	}
	e := m.tileEfficiency(k) - (dpSchedB + dpSchedA/float64(k))
	e *= l2Spill(k, 8, m.Arch.L2Bytes)
	minDim := mDim
	if nDim < minDim {
		minDim = nDim
	}
	e *= sizeLoss(minDim)
	if e < 0 {
		e = 0
	}
	return e
}

// PackOverhead returns the fractional cost of packing the operands of a
// size-n DGEMM into the Knights Corner-friendly layout (Figure 4: 15% at
// 1K, under 2% from 5K, under 0.4% from 17K).
func PackOverhead(n int) float64 {
	if n <= 0 {
		return 0
	}
	o := packC / pow(float64(n), packExp)
	if o > 0.6 {
		o = 0.6
	}
	return o
}

// pow is a small positive-base power via exp/log-free iteration for the
// fixed exponent shapes we use; math.Pow would be fine but this keeps the
// dependency list honest about determinism.
func pow(base, exp float64) float64 {
	// base^exp = exp2(exp*log2(base)); delegate to math via inline
	// implementation would be overkill — use the obvious route.
	return mathPow(base, exp)
}

// DgemmEff returns the efficiency of full native DGEMM (packing included)
// for an m×n×k product — the Table II and Figure 4 top-curve quantity.
func (m *KNC) DgemmEff(mDim, nDim, k int) float64 {
	minDim := mDim
	if nDim < minDim {
		minDim = nDim
	}
	return m.DgemmKernelEff(mDim, nDim, k) * (1 - PackOverhead(minDim))
}

// SgemmEff is the single-precision analogue of DgemmEff. The SP working
// set is half the DP one, so the L2 spill penalty only appears at far
// larger k, which is why Table II's SGEMM efficiency keeps rising to k=400.
func (m *KNC) SgemmEff(mDim, nDim, k int) float64 {
	if mDim <= 0 || nDim <= 0 || k <= 0 {
		return 0
	}
	e := m.tileEfficiency(k) - (spSchedB + spSchedA/float64(k))
	e *= l2Spill(k, 4, m.Arch.L2Bytes)
	minDim := mDim
	if nDim < minDim {
		minDim = nDim
	}
	e *= sizeLoss(minDim)
	e *= 1 - PackOverhead(minDim)
	if e < 0 {
		e = 0
	}
	return e
}

// DgemmGFLOPS returns native DGEMM performance in GFLOPS against the
// 60-core compute peak (the paper's native denominator).
func (m *KNC) DgemmGFLOPS(mDim, nDim, k int) float64 {
	return m.DgemmEff(mDim, nDim, k) * m.Arch.ComputePeakDPGFLOPS()
}

// SgemmGFLOPS returns native SGEMM performance in GFLOPS.
func (m *KNC) SgemmGFLOPS(mDim, nDim, k int) float64 {
	return m.SgemmEff(mDim, nDim, k) * m.Arch.ComputePeakSPGFLOPS()
}

// Panel factorization model. Panel factorization is latency- and
// bandwidth-bound (IDAMAX reductions, rank-1 updates on a tall skinny
// panel); its parallel efficiency saturates quickly with threads. The
// per-thread rate and cap below are calibrated so the native-Linpack
// simulation reproduces Figure 6 (dynamic scheduling hides panels from
// ~8K up; 832 GFLOPS at 30K).
const (
	panelPerThreadGFLOPS = 0.55
	panelCapGFLOPS       = 33.0
)

// PanelFlops returns the flop count of factoring an m×nb panel.
func PanelFlops(m, nb int) float64 {
	if m <= 0 || nb <= 0 {
		return 0
	}
	// sum_{j=0..nb-1} [ (m-j-1) divisions + 2*(m-j-1)*(nb-j-1) update ]
	f := 0.0
	for j := 0; j < nb; j++ {
		rows := float64(m - j - 1)
		if rows < 0 {
			rows = 0
		}
		f += rows + 2*rows*float64(nb-j-1)
	}
	return f
}

// PanelTime returns the seconds to factor an m×nb panel with `threads`
// hardware threads cooperating.
func (m *KNC) PanelTime(rows, nb, threads int) float64 {
	if rows <= 0 || nb <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	rate := panelPerThreadGFLOPS * float64(threads)
	if rate > panelCapGFLOPS {
		rate = panelCapGFLOPS
	}
	return PanelFlops(rows, nb) / (rate * 1e9)
}

// SwapTime returns the seconds to apply nb row interchanges across `cols`
// columns: 2·8·nb·cols bytes of strided traffic against a fraction of
// STREAM bandwidth (row swapping achieves roughly half of STREAM because
// the accesses are row-pair strided).
func (m *KNC) SwapTime(nb, cols int) float64 {
	if nb <= 0 || cols <= 0 {
		return 0
	}
	bytes := 2 * 8 * float64(nb) * float64(cols)
	return bytes / (0.5 * m.Arch.StreamBW)
}

// TrsmTime returns the seconds for the nb×cols triangular solve that
// produces the U block row. It is compute-bound but works on a skinny
// operand, sustaining roughly half of DGEMM efficiency.
func (m *KNC) TrsmTime(nb, cols, cores int) float64 {
	if nb <= 0 || cols <= 0 || cores <= 0 {
		return 0
	}
	flops := float64(nb) * float64(nb) * float64(cols)
	peak := float64(cores) * m.Arch.ClockGHz * 1e9 * m.Arch.DPFlopsPerCycle()
	return flops / (0.45 * peak)
}

// BarrierTime returns the cost of a global barrier over `threads` hardware
// threads — a log-depth tree of cache-line handoffs. Calibrated to ~10 µs
// for the full 240-thread card, which is what makes the static scheme's
// per-stage barrier visible at small N in Figure 6.
func BarrierTime(threads int) float64 {
	if threads <= 1 {
		return 0
	}
	depth := 0
	for n := 1; n < threads; n *= 2 {
		depth++
	}
	return float64(depth) * 1.3e-6
}

// --- Sandy Bridge (MKL) baselines -----------------------------------------

// SNB models the host processor running Intel MKL kernels.
type SNB struct {
	Arch *machine.Arch
}

// NewSNB returns the Sandy Bridge EP model.
func NewSNB() *SNB { return &SNB{Arch: machine.SandyBridgeEP()} }

// DgemmEff returns MKL DGEMM efficiency vs. size: ~90% asymptote
// (Figure 4's bottom curve).
func (s *SNB) DgemmEff(n int) float64 {
	if n <= 0 {
		return 0
	}
	e := 0.905 * (1 - 55.0/(float64(n)+350))
	if e < 0 {
		e = 0
	}
	return e
}

// HPLEff returns MKL SMP-Linpack efficiency vs. problem size on one node:
// 83% at 30K (Figure 6), 86.4% at 84K (Table III, first section).
func (s *SNB) HPLEff(n int) float64 {
	if n <= 0 {
		return 0
	}
	e := 0.88 * (1 - 5124.0/mathPow(float64(n), 1.107))
	if e < 0 {
		e = 0
	}
	return e
}

// HPLGFLOPS returns the MKL Linpack performance on one host node.
func (s *SNB) HPLGFLOPS(n int) float64 {
	return s.HPLEff(n) * s.Arch.PeakDPGFLOPS()
}

// PanelTime returns host panel factorization time: the host's fat
// out-of-order cores factor panels far faster per-thread than the card,
// which is the reason hybrid HPL runs panels on the host.
func (s *SNB) PanelTime(rows, nb, threads int) float64 {
	if rows <= 0 || nb <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	rate := 3.0 * float64(threads) // GFLOPS
	if rate > 48 {
		rate = 48
	}
	return PanelFlops(rows, nb) / (rate * 1e9)
}

// LUFlops returns the standard Linpack flop count 2/3·n³ + 2·n².
func LUFlops(n int) float64 {
	fn := float64(n)
	return 2.0/3.0*fn*fn*fn + 2*fn*fn
}
