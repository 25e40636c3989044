package perfmodel

import (
	"math"
	"testing"
)

// Table II of the paper: efficiency (%) as a function of k for
// M = N = 28000.
var tableII = []struct {
	k      int
	sgemm  float64
	dgemm  float64
	sgemmG float64 // GFLOPS
	dgemmG float64
}{
	{120, 88.3, 86.7, 1866, 915},
	{180, 89.3, 88.6, 1886, 935},
	{240, 90.1, 89.1, 1902, 941},
	{300, 90.4, 89.4, 1910, 944},
	{340, 90.6, 89.3, 1914, 943},
	{400, 90.8, 88.9, 1917, 943},
}

func TestTableIIDgemm(t *testing.T) {
	m := NewKNC()
	for _, row := range tableII {
		eff := m.DgemmEff(28000, 28000, row.k) * 100
		if math.Abs(eff-row.dgemm) > 0.5 {
			t.Errorf("DGEMM k=%d: eff = %.2f%%, paper %.1f%%", row.k, eff, row.dgemm)
		}
		g := m.DgemmGFLOPS(28000, 28000, row.k)
		if math.Abs(g-row.dgemmG) > 6 {
			t.Errorf("DGEMM k=%d: %.0f GFLOPS, paper %.0f", row.k, g, row.dgemmG)
		}
	}
}

func TestTableIISgemm(t *testing.T) {
	m := NewKNC()
	for _, row := range tableII {
		eff := m.SgemmEff(28000, 28000, row.k) * 100
		if math.Abs(eff-row.sgemm) > 0.5 {
			t.Errorf("SGEMM k=%d: eff = %.2f%%, paper %.1f%%", row.k, eff, row.sgemm)
		}
		g := m.SgemmGFLOPS(28000, 28000, row.k)
		if math.Abs(g-row.sgemmG) > 12 {
			t.Errorf("SGEMM k=%d: %.0f GFLOPS, paper %.0f", row.k, g, row.sgemmG)
		}
	}
}

func TestDgemmBestKIs300(t *testing.T) {
	// The headline: DGEMM peaks at k=300 (89.4% / 944 GFLOPS) and dips
	// beyond as the L2 block spills; SGEMM keeps rising to k=400.
	m := NewKNC()
	best := 0
	bestEff := 0.0
	for _, row := range tableII {
		if e := m.DgemmEff(28000, 28000, row.k); e > bestEff {
			best, bestEff = row.k, e
		}
	}
	if best != 300 {
		t.Errorf("DGEMM best k = %d, want 300", best)
	}
	if s300, s400 := m.SgemmEff(28000, 28000, 300), m.SgemmEff(28000, 28000, 400); s400 <= s300 {
		t.Errorf("SGEMM should keep improving to k=400: %v vs %v", s300, s400)
	}
}

func TestHeadline944GFLOPS(t *testing.T) {
	m := NewKNC()
	g := m.DgemmGFLOPS(28000, 28000, 300)
	if math.Abs(g-944) > 4 {
		t.Errorf("DGEMM(28K, k=300) = %.1f GFLOPS, paper 944", g)
	}
}

func TestFigure4PackingOverheadShape(t *testing.T) {
	// 15% at 1K, under 2% from 5K, under 0.4% from 17K.
	if o := PackOverhead(1000); math.Abs(o-0.15) > 0.02 {
		t.Errorf("pack overhead @1K = %.3f, want ~0.15", o)
	}
	if o := PackOverhead(5000); o > 0.022 {
		t.Errorf("pack overhead @5K = %.3f, want < 2%%", o)
	}
	if o := PackOverhead(17000); o > 0.0045 {
		t.Errorf("pack overhead @17K = %.4f, want ~0.4%%", o)
	}
	if o := PackOverhead(20000); o >= 0.004 {
		t.Errorf("pack overhead @20K = %.4f, want < 0.4%%", o)
	}
	if PackOverhead(0) != 0 {
		t.Error("PackOverhead(0)")
	}
	if PackOverhead(1) != 0.6 {
		t.Errorf("tiny-n overhead should cap at 0.6, got %v", PackOverhead(1))
	}
}

func TestFigure4KernelCurve(t *testing.T) {
	m := NewKNC()
	// Kernel (no packing) reaches 88% by 5K (paper Section III-B).
	if e := m.DgemmKernelEff(5000, 5000, 300); e < 0.875 || e > 0.90 {
		t.Errorf("kernel eff @5K = %.3f, want ~0.88", e)
	}
	// Monotone in size.
	prev := 0.0
	for _, n := range []int{1000, 2000, 5000, 10000, 17000, 28000} {
		e := m.DgemmKernelEff(n, n, 300)
		if e <= prev {
			t.Errorf("kernel eff not increasing at n=%d: %v <= %v", n, e, prev)
		}
		prev = e
	}
}

func TestDegenerateInputs(t *testing.T) {
	m := NewKNC()
	if m.DgemmEff(0, 5, 5) != 0 || m.SgemmEff(5, 0, 5) != 0 || m.DgemmKernelEff(5, 5, 0) != 0 {
		t.Error("degenerate shapes should give zero efficiency")
	}
	if m.PanelTime(0, 3, 1) != 0 || m.SwapTime(0, 1) != 0 || m.TrsmTime(1, 0, 1) != 0 {
		t.Error("degenerate costs should be zero")
	}
}

func TestPanelModel(t *testing.T) {
	// Exact small case: m=2, nb=1 -> one division, no update: 1 flop.
	if f := PanelFlops(2, 1); f != 1 {
		t.Errorf("PanelFlops(2,1) = %v", f)
	}
	// Asymptotically ~ m*nb^2 for m >> nb.
	f := PanelFlops(10000, 100)
	if approx := 10000.0 * 100 * 100; math.Abs(f-approx)/approx > 0.1 {
		t.Errorf("PanelFlops(10000,100) = %g, want ~%g", f, approx)
	}
	m := NewKNC()
	// More threads help, but saturate at the cap.
	t1 := m.PanelTime(10000, 300, 4)
	t2 := m.PanelTime(10000, 300, 16)
	t3 := m.PanelTime(10000, 300, 60)
	t4 := m.PanelTime(10000, 300, 240)
	if !(t1 > t2 && t2 > t3) {
		t.Errorf("panel time should shrink with threads: %v %v %v", t1, t2, t3)
	}
	if t4 != t3 {
		t.Errorf("panel rate should cap: %v vs %v", t4, t3)
	}
	if PanelFlops(0, 5) != 0 {
		t.Error("empty panel flops")
	}
}

func TestBarrierTime(t *testing.T) {
	if BarrierTime(1) != 0 {
		t.Error("single-thread barrier is free")
	}
	b240 := BarrierTime(240)
	if b240 < 5e-6 || b240 > 20e-6 {
		t.Errorf("240-thread barrier = %v, want ~10 µs", b240)
	}
	if BarrierTime(16) >= b240 {
		t.Error("barrier grows with thread count")
	}
}

func TestSNBBaselines(t *testing.T) {
	s := NewSNB()
	// Figure 4: MKL DGEMM up to 90%.
	if e := s.DgemmEff(28000); e < 0.89 || e > 0.91 {
		t.Errorf("SNB DGEMM eff @28K = %.3f, want ~0.90", e)
	}
	// Figure 6: MKL Linpack 277 GFLOPS (83%) at 30K.
	if g := s.HPLGFLOPS(30000); math.Abs(g-277) > 6 {
		t.Errorf("SNB HPL @30K = %.1f GFLOPS, paper 277", g)
	}
	if e := s.HPLEff(30000); math.Abs(e-0.83) > 0.015 {
		t.Errorf("SNB HPL eff @30K = %.3f, paper 0.83", e)
	}
	// Table III: 86.4% at 84K single node.
	if e := s.HPLEff(84000); math.Abs(e-0.864) > 0.01 {
		t.Errorf("SNB HPL eff @84K = %.3f, paper 0.864", e)
	}
	if s.HPLEff(0) != 0 || s.DgemmEff(0) != 0 {
		t.Error("degenerate SNB inputs")
	}
	// Host panels are much faster than card panels at small thread counts.
	k := NewKNC()
	if s.PanelTime(5000, 300, 8) >= k.PanelTime(5000, 300, 8) {
		t.Error("host panel should beat card panel at same thread count")
	}
	if s.PanelTime(0, 1, 1) != 0 {
		t.Error("degenerate SNB costs")
	}
}

func TestLUFlops(t *testing.T) {
	// 2/3 n^3 + 2 n^2.
	if f := LUFlops(30); math.Abs(f-(2.0/3.0*27000+1800)) > 1e-9 {
		t.Errorf("LUFlops(30) = %v", f)
	}
}

func TestSwapAndTrsmScale(t *testing.T) {
	m := NewKNC()
	if !(m.SwapTime(300, 20000) > m.SwapTime(300, 10000)) {
		t.Error("swap time scales with cols")
	}
	if !(m.TrsmTime(300, 20000, 60) > m.TrsmTime(300, 10000, 60)) {
		t.Error("trsm time scales with cols")
	}
	// Swap is bandwidth bound: doubling nb doubles time.
	r := m.SwapTime(600, 10000) / m.SwapTime(300, 10000)
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("swap nb scaling = %v", r)
	}
}

func TestTileEffCache(t *testing.T) {
	m := NewKNC()
	a := m.DgemmEff(28000, 28000, 300)
	b := m.DgemmEff(28000, 28000, 300)
	if a != b {
		t.Error("cached efficiency changed between calls")
	}
	if len(m.tileEff) == 0 {
		t.Error("cache not populated")
	}
}
