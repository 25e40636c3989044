// Package machine describes the hardware platforms of the paper's test-bed
// (Table I): the Intel Xeon E5-2670 "Sandy Bridge EP" host and the Intel
// Xeon Phi "Knights Corner" coprocessor, plus the node and cluster
// configurations built from them.
//
// All performance modelling in this repository is parameterized by these
// descriptions; nothing else hard-codes hardware constants. Peak rates are
// derived (cores × frequency × SIMD width × ops/cycle), and the tests assert
// that the derived numbers match the figures published in Table I of the
// paper (1074 DP GFLOPS for Knights Corner, 333 DP GFLOPS for the host).
package machine

import "fmt"

// Arch describes one processor architecture.
type Arch struct {
	Name    string
	Sockets int
	// CoresPerSocket counts physical cores per socket.
	CoresPerSocket int
	// ThreadsPerCore is the SMT (hyper-threading) degree.
	ThreadsPerCore int
	// ClockGHz is the nominal core frequency in GHz.
	ClockGHz float64
	// VectorBits is the SIMD register width in bits (512 for KNC, 256 AVX).
	VectorBits int
	// FMA reports whether the vector unit executes fused multiply-add
	// (2 flops per lane per instruction in a single issue slot). Sandy
	// Bridge instead has separate multiply and add ports, which reach the
	// same flops/cycle but without single-instruction FMA.
	FMA bool
	// VectorRegisters is the number of architectural vector registers.
	VectorRegisters int

	// Cache sizes in bytes. L3 is zero when absent (Knights Corner).
	L1Bytes, L2Bytes, L3Bytes int

	// DRAMBytes is the device/host memory capacity in bytes.
	DRAMBytes int64
	// StreamBW is the achievable STREAM triad bandwidth in bytes/second.
	StreamBW float64

	// ReservedCores is the number of cores not used for computation
	// (Knights Corner reserves the last core for the OS in native runs).
	ReservedCores int
}

// Cores returns the total number of physical cores.
func (a *Arch) Cores() int { return a.Sockets * a.CoresPerSocket }

// ComputeCores returns the number of cores available for computation in
// native mode (total minus reserved).
func (a *Arch) ComputeCores() int { return a.Cores() - a.ReservedCores }

// Threads returns the total hardware thread count.
func (a *Arch) Threads() int { return a.Cores() * a.ThreadsPerCore }

// DPLanes returns the number of double-precision SIMD lanes.
func (a *Arch) DPLanes() int { return a.VectorBits / 64 }

// SPLanes returns the number of single-precision SIMD lanes.
func (a *Arch) SPLanes() int { return a.VectorBits / 32 }

// DPFlopsPerCycle returns double-precision flops per cycle per core.
// With FMA, each lane retires 2 flops per cycle from one instruction;
// with split multiply/add ports (Sandy Bridge) one multiply and one add
// instruction co-issue for the same 2 flops per lane per cycle.
func (a *Arch) DPFlopsPerCycle() float64 { return float64(2 * a.DPLanes()) }

// SPFlopsPerCycle returns single-precision flops per cycle per core.
func (a *Arch) SPFlopsPerCycle() float64 { return float64(2 * a.SPLanes()) }

// PeakDPGFLOPS returns peak double-precision GFLOPS over all cores.
func (a *Arch) PeakDPGFLOPS() float64 {
	return float64(a.Cores()) * a.ClockGHz * a.DPFlopsPerCycle()
}

// PeakSPGFLOPS returns peak single-precision GFLOPS over all cores.
func (a *Arch) PeakSPGFLOPS() float64 {
	return float64(a.Cores()) * a.ClockGHz * a.SPFlopsPerCycle()
}

// ComputePeakDPGFLOPS returns double-precision peak over compute cores only
// (the denominator the paper uses for native DGEMM and native Linpack
// efficiency; see the footnote to Section II).
func (a *Arch) ComputePeakDPGFLOPS() float64 {
	return float64(a.ComputeCores()) * a.ClockGHz * a.DPFlopsPerCycle()
}

// ComputePeakSPGFLOPS is the single-precision analogue of ComputePeakDPGFLOPS.
func (a *Arch) ComputePeakSPGFLOPS() float64 {
	return float64(a.ComputeCores()) * a.ClockGHz * a.SPFlopsPerCycle()
}

// CyclesPerSecond returns the core clock in Hz.
func (a *Arch) CyclesPerSecond() float64 { return a.ClockGHz * 1e9 }

func (a *Arch) String() string {
	return fmt.Sprintf("%s: %dx%dx%d @ %.1f GHz, %d-bit SIMD, %.0f DP GFLOPS",
		a.Name, a.Sockets, a.CoresPerSocket, a.ThreadsPerCore, a.ClockGHz,
		a.VectorBits, a.PeakDPGFLOPS())
}

// PCIe describes the host<->coprocessor link.
type PCIe struct {
	// RawBW is the best-case transfer bandwidth in bytes/second
	// (the paper quotes ~6 GB/s, with 5.5 GB/s achievable).
	RawBW float64
	// ContendedBW is the bandwidth observed when transfers compete with
	// swapping and host DGEMM for host memory bandwidth (~4 GB/s in the
	// paper, Section V-B footnote).
	ContendedBW float64
	// LatencySec is the per-transfer setup latency.
	LatencySec float64
}

// Interconnect describes the cluster fabric (single-rail FDR InfiniBand).
type Interconnect struct {
	// BWBytes is point-to-point bandwidth in bytes/second.
	BWBytes float64
	// LatencySec is the point-to-point message latency.
	LatencySec float64
}

// Node is one cluster node: a host plus zero or more coprocessor cards.
type Node struct {
	Host  *Arch
	Cards []*Arch
	Link  PCIe
	// HostMemBytes overrides Host.DRAMBytes when nodes are configured with
	// more or less memory than the default (Table III uses 64 and 128 GB).
	HostMemBytes int64
}

// PeakDPGFLOPS returns the aggregate node peak (host + all cards), counting
// every core on the cards, as the paper does for hybrid efficiency.
func (n *Node) PeakDPGFLOPS() float64 {
	p := n.Host.PeakDPGFLOPS()
	for _, c := range n.Cards {
		p += c.PeakDPGFLOPS()
	}
	return p
}

// MemBytes returns the usable host memory.
func (n *Node) MemBytes() int64 {
	if n.HostMemBytes > 0 {
		return n.HostMemBytes
	}
	return n.Host.DRAMBytes
}

const (
	kib = 1024
	mib = 1024 * kib
	gib = 1024 * mib
)

// KnightsCorner returns the Knights Corner coprocessor description used
// throughout the paper: 61 in-order cores, 4-way SMT, 1.1 GHz, 512-bit
// vectors with FMA, 32 KB L1 + 512 KB L2 per core, 8 GB GDDR at 150 GB/s
// STREAM. The last core is reserved for the OS in native runs.
func KnightsCorner() *Arch {
	return &Arch{
		Name:            "Knights Corner",
		Sockets:         1,
		CoresPerSocket:  61,
		ThreadsPerCore:  4,
		ClockGHz:        1.1,
		VectorBits:      512,
		FMA:             true,
		VectorRegisters: 32,
		L1Bytes:         32 * kib,
		L2Bytes:         512 * kib,
		L3Bytes:         0,
		DRAMBytes:       8 * gib,
		StreamBW:        150e9,
		ReservedCores:   1,
	}
}

// SandyBridgeEP returns the dual-socket Xeon E5-2670 host description:
// 2×8 out-of-order cores, 2-way SMT, 2.6 GHz, 256-bit AVX with separate
// multiply and add ports, 20 MB L3 per socket, 128 GB DRAM at 76 GB/s.
func SandyBridgeEP() *Arch {
	return &Arch{
		Name:            "Sandy Bridge EP",
		Sockets:         2,
		CoresPerSocket:  8,
		ThreadsPerCore:  2,
		ClockGHz:        2.6,
		VectorBits:      256,
		FMA:             false,
		VectorRegisters: 16,
		L1Bytes:         32 * kib,
		L2Bytes:         256 * kib,
		L3Bytes:         20 * mib,
		DRAMBytes:       128 * gib,
		StreamBW:        76e9,
		ReservedCores:   0,
	}
}

// DefaultPCIe returns the PCIe link parameters from the paper.
func DefaultPCIe() PCIe {
	return PCIe{RawBW: 6e9, ContendedBW: 4e9, LatencySec: 10e-6}
}

// FDRInfiniband returns the cluster fabric parameters (single-rail FDR).
func FDRInfiniband() Interconnect {
	return Interconnect{BWBytes: 6e9, LatencySec: 2e-6}
}

// HybridNode builds a node with the given number of Knights Corner cards
// and host memory in GiB (64 or 128 in Table III).
func HybridNode(cards int, hostMemGiB int) *Node {
	n := &Node{
		Host:         SandyBridgeEP(),
		Link:         DefaultPCIe(),
		HostMemBytes: int64(hostMemGiB) * gib,
	}
	for i := 0; i < cards; i++ {
		n.Cards = append(n.Cards, KnightsCorner())
	}
	return n
}
