// Package pcie models the host↔coprocessor PCIe link of Section V-B: a
// full-duplex DMA engine with per-direction FIFO queues, a raw bandwidth of
// ~6 GB/s and a contended bandwidth of ~4 GB/s when transfers compete with
// row swapping and host DGEMM for host memory bandwidth (the paper's
// footnote 4).
//
// The link is the binding constraint behind the paper's tile-size rule
// Kt > 4·P/BW: an output tile's transfer must hide under its compute.
package pcie

import "phihpl/internal/machine"

// Direction of a transfer.
type Direction int

const (
	// HostToDevice moves packed input tiles to the card.
	HostToDevice Direction = iota
	// DeviceToHost moves result tiles back.
	DeviceToHost
)

// Link is a virtual-time PCIe link. The two directions are independent DMA
// engines (PCIe is full duplex); each serializes its own queue.
type Link struct {
	Cfg machine.PCIe
	// Contended selects the reduced bandwidth that applies while the host
	// is simultaneously swapping rows and computing (hybrid HPL).
	Contended bool
	// Share scales available bandwidth when several cards contend for the
	// same host memory controllers (1.0 = exclusive).
	Share float64

	// busyUntil is when each direction's DMA engine next frees up.
	busyUntil [2]float64

	// BytesMoved accumulates total traffic per direction.
	BytesMoved [2]float64
}

// NewLink returns a link with the paper's default parameters.
func NewLink(cfg machine.PCIe) *Link {
	return &Link{Cfg: cfg, Share: 1.0}
}

// Bandwidth returns the effective bytes/second currently available.
func (l *Link) Bandwidth() float64 {
	bw := l.Cfg.RawBW
	if l.Contended {
		bw = l.Cfg.ContendedBW
	}
	s := l.Share
	if s <= 0 || s > 1 {
		s = 1
	}
	return bw * s
}

// TransferTime returns the unqueued duration of moving `bytes`.
func (l *Link) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.Cfg.LatencySec + bytes/l.Bandwidth()
}

// Enqueue reserves the DMA engine for a transfer requested at time t and
// returns the granted [start, end) interval. Requests in one direction
// serialize; the two directions are independent.
func (l *Link) Enqueue(dir Direction, t, bytes float64) (start, end float64) {
	l.BytesMoved[dir] += bytes
	start = max(t, l.busyUntil[dir])
	end = start + l.TransferTime(bytes)
	l.busyUntil[dir] = end
	return start, end
}

// BusyUntil returns when the given direction's engine frees up.
func (l *Link) BusyUntil(dir Direction) float64 { return l.busyUntil[dir] }

// MinKt returns the paper's lower bound on the offload panel depth:
// Kt > 4·Pdgemm/BW, with Pdgemm in flops/s and the result in columns.
// Below this depth the output-tile transfer cannot hide under compute.
func MinKt(cardGFLOPS, bwBytes float64) int {
	if bwBytes <= 0 {
		return 0
	}
	return int(4 * cardGFLOPS * 1e9 / bwBytes)
}
