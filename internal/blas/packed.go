package blas

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
	"phihpl/internal/pack"
	"phihpl/internal/pool"
)

// The packed-tile fast path of Section III: operands are packed once per
// K-block into the Knights Corner layout (A in TileM×k column-major tiles,
// B in k×TileN row-major tiles) and multiplied by the register-blocked
// micro-kernel over an L2-sized K-blocked sequence of outer products. The
// tile grid and the packing itself are distributed over the persistent
// worker pool in internal/pool — no goroutines are created per call. The
// driver is written once over the element type; the tile geometry (30×8
// for float64, 32×16 for float32) and the micro-kernel come from pack.
//
// Bitwise-reproducibility contract: the value of every C element depends
// only on its row of alpha·op(A), its column of op(B), beta·C and the
// K-block boundaries (a function of k alone) — never on the worker count,
// the tile the element lands in, or how the m×n iteration space is
// partitioned. The LU and HPL drivers split one mathematical trailing
// update into many differently-shaped DGEMM calls with the *same* k, and
// every one of them — RankKUpdate, GemmPrepacked, the offload engine —
// runs this arithmetic whatever k is, so this property is exactly what
// keeps sequential, look-ahead, DAG-scheduled and distributed
// factorizations bitwise identical to each other.

// packKC is the K-block depth: each outer product packs at most packKC
// columns of A and rows of B, sized so one a-tile strip (TileM×packKC)
// plus one b-tile (packKC×8) stay L2-resident. It mirrors the paper's
// k≈300–400 blocking (Table II peaks at k=300).
const packKC = 384

// perType is what the generic code keeps once per element width: the
// recycled buffers, and the names its spans and counters are published
// under (traces, /metrics and bench/ read the FP32 ones with an "s"). The
// pools are untyped so that one record serves every T of its width; pooled
// and prepackTake assert the element type on the way out.
type perType struct {
	packSpan, computeSpan string
	calls, bytes, flops   atomic.Pointer[metrics.Counter]

	bufs, slabs, bSlabs sync.Pool // *packBuf[T], *[]T (behind keep), *bSlab[T]
	keep                chan any  // *[]T; see prepackPut
}

var (
	fp64 = perType{packSpan: "pack", computeSpan: "compute", keep: make(chan any, 4)}
	fp32 = perType{packSpan: "spack", computeSpan: "scompute", keep: make(chan any, 4)}
)

// state returns the record of T; the width test folds in each
// instantiation, so this is a constant address.
func state[T matrix.Float]() *perType {
	if matrix.Is64[T]() {
		return &fp64
	}
	return &fp32
}

// pooled takes a *P out of p, or allocates one when the pool is empty.
func pooled[P any](p *sync.Pool) *P {
	if v, ok := p.Get().(*P); ok {
		return v
	}
	return new(P)
}

// packBuf is a reusable set of packing buffers plus the packed-operand
// headers, recycled through a sync.Pool so steady-state GemmPacked calls
// allocate nothing beyond two per-call closures: the headers live here
// precisely so the per-K-block loop re-points them instead of
// re-allocating them (the allocs-per-op growth with K-block count that
// the n=512 benchmark rows exposed).
type packBuf[T matrix.Float] struct {
	a, b []T
	pa   pack.AOf[T]
	pbk  pack.BOf[T]
}

// take returns slices of exactly na and nb elements, growing the backing
// buffers only when a larger shape arrives. Contents are stale; the
// packers overwrite every element including padding.
func (pb *packBuf[T]) take(na, nb int) ([]T, []T) {
	if cap(pb.a) < na {
		pb.a = make([]T, na)
	}
	if cap(pb.b) < nb {
		pb.b = make([]T, nb)
	}
	return pb.a[:na], pb.b[:nb]
}

// GemmPacked computes C = alpha*op(A)*op(B) + beta*C through the
// packed-tile parallel fast path. It is numerically equivalent to the
// reference loop of its type (Dgemm, Sgemm) and considerably faster for
// shapes whose k is large enough to amortize the packing, which is the
// LU/HPL trailing-update regime; the reference loops remain the
// always-available oracles. Against Dgemm the float64 result is
// element-wise within O(k)·ulp (the accumulation is grouped per K-block
// instead of folded straight into C). Against Sgemm, which groups the same
// way, the float32 result is bit-for-bit identical under the scalar
// micro-kernel and within O(k)·ulp under the fused vector kernel — an
// order of magnitude faster, the SP-vector advantage of the paper's
// Table II that no scalar loop can reproduce.
func GemmPacked[T matrix.Float](transA, transB bool, alpha T, a, b *matrix.Of[T], beta T, c *matrix.Of[T], workers int) {
	m, k := opDims(a, transA)
	k2, n := opDims(b, transB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panic("blas: GemmPacked dimension mismatch")
	}
	scaleRows(c, beta, workers)
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}

	st := state[T]()
	tileM, tileN := pack.DefaultTileMOf[T](), pack.TileNOf[T]()
	aTiles := (m + tileM - 1) / tileM
	bTiles := (n + tileN - 1) / tileN
	pb := pooled[packBuf[T]](&st.bufs)
	defer st.bufs.Put(pb)
	pa, pkb := &pb.pa, &pb.pbk

	rec := obsTrace.Load()
	st.calls.Load().Inc()
	st.flops.Load().Add(2 * int64(m) * int64(n) * int64(k))

	// The per-K-block loop mutates k0/kb and re-points the packed-operand
	// headers; the two region closures are created once per call, outside
	// the loop, so the allocation count no longer scales with ceil(k/kC).
	var k0, kb int
	// Pack the A and B panels in parallel: tiles are independent, so the
	// index spaces are fused into one work list (aTiles items for A, then
	// bTiles for B).
	packFn := func(t int) {
		if t < aTiles {
			pack.PackATileOp(pa, a, transA, alpha, k0, t)
		} else {
			pack.PackBTileOp(pkb, b, transB, k0, t-aTiles)
		}
	}
	// Outer product: the (aTile, bTile) grid updates disjoint TileM×TileN
	// blocks of C, claimed by atomic work stealing over the pool.
	compFn := func(j int) {
		ta, tb := j/bTiles, j%bTiles
		rows := pa.TileRows(ta)
		cols := pkb.TileCols(tb)
		off := ta*tileM*c.Stride + tb*tileN
		pack.Kernel(pa.Tile(ta), pa.TileM, kb, pkb.Tile(tb), c.Data[off:], c.Stride, rows, cols)
	}

	for k0 = 0; k0 < k; k0 += packKC {
		kb = min(packKC, k-k0)
		aData, bData := pb.take(aTiles*tileM*kb, bTiles*kb*tileN)
		pa.M, pa.K, pa.TileM, pa.Data = m, kb, tileM, aData
		pkb.K, pkb.N, pkb.Data = kb, n, bData
		st.bytes.Load().Add(sizeOf[T]() * int64(len(aData)+len(bData)))

		var t0 float64
		if rec != nil {
			t0 = rec.Start()
		}
		pool.Do(aTiles+bTiles, workers, packFn)
		if rec != nil {
			rec.Since(0, st.packSpan, k0/packKC, t0)
			t0 = rec.Start()
		}
		pool.Do(aTiles*bTiles, workers, compFn)
		if rec != nil {
			rec.Since(0, st.computeSpan, k0/packKC, t0)
		}
	}
}

// DgemmPacked is GemmPacked in double precision.
func DgemmPacked(transA, transB bool, alpha float64, a, b *matrix.Dense, beta float64, c *matrix.Dense, workers int) {
	GemmPacked(transA, transB, alpha, a, b, beta, c, workers)
}

// SgemmPacked is GemmPacked in single precision.
func SgemmPacked(transA, transB bool, alpha float32, a, b *matrix.Dense32, beta float32, c *matrix.Dense32, workers int) {
	GemmPacked(transA, transB, alpha, a, b, beta, c, workers)
}

// sizeOf is the width of T in bytes, for the bytes-packed counters.
func sizeOf[T matrix.Float]() int64 {
	if matrix.Is64[T]() {
		return 8
	}
	return 4
}

// --- prepacked operands ------------------------------------------------
//
// HPL's trailing update multiplies one L panel against every U block of
// a block row, and one U block against every L panel of a block column:
// per-call packing re-packs each operand O(blocks) times. Prepacking
// packs an operand once and reuses the tiles across calls. Because a C
// element's value depends only on its packed A row, packed B column and
// the K-block boundaries (see the contract above), GemmPrepacked is
// bitwise identical to the GemmPacked call it replaces.
//
// perType.slabs recycles the packed-A backing arrays so steady-state
// prepacking allocates only the operand handle: Release returns a slab
// once the packed operand is no longer referenced. Contents are stale on
// reuse; the packers overwrite every element including padding. Getf2
// borrows its contiguous panel copy from the same place — an L panel and
// its packed form are the same size.
//
// perType.keep is a short free list in front of that pool that a garbage
// collection does not empty. A shared-memory LU keeps two to four slabs in
// flight (two stages' L21, the panel copy, one more at a stage boundary)
// and how many it peaks at varies from solve to solve; a sync.Pool drops
// whatever one collection cycle did not use, so the slab for the peak was
// re-allocated about once per solve — a megabyte that lands in the hole
// the last solve's freed matrix left, which the next matrix then no
// longer fits (peak RSS of back-to-back n=1536 solves: 100–125 MiB with
// the pool alone, 98–100 MiB with this list, 96–99 MiB before any of
// these slabs existed). Four slots cover one solve's peak; more
// concurrent demand overflows into the pool. Slabs above slabKeepMax
// elements are not held, so each list pins at most 32 MiB.
const slabKeepMax = 1 << 20

func prepackPut[T matrix.Float](s *[]T) {
	st := state[T]()
	if cap(*s) <= slabKeepMax {
		select {
		case st.keep <- s:
			return
		default:
		}
	}
	st.slabs.Put(s)
}

// prepackTake returns a slab of n elements. A slab that has to be
// (re)allocated gets the next power of two as capacity: an LU sweep asks
// for one size per stage, each a little smaller than the last, and gets
// the slabs back in no particular order — with exact-fit capacities the
// next solve's early stages keep drawing slabs cut for late ones and
// growing them again.
func prepackTake[T matrix.Float](n int) *[]T {
	st := state[T]()
	var s *[]T
	select {
	case v := <-st.keep:
		s, _ = v.(*[]T)
	default:
	}
	if s == nil {
		s = pooled[[]T](&st.slabs)
	}
	if cap(*s) < n {
		*s = make([]T, n, 1<<bits.Len(uint(n-1)))
	}
	*s = (*s)[:n]
	return s
}

// PrepackedA is alpha·A packed once into the tile layout: one packed
// block per K-block of GemmPacked's schedule, all in one slab.
type PrepackedA[T matrix.Float] struct {
	m, k   int
	blocks []pack.AOf[T]
	slab   *[]T
}

// Release recycles the packed buffer. Optional (an unreleased operand is
// ordinary garbage); call it only once no GemmPrepacked will read the
// operand again.
func (a *PrepackedA[T]) Release() {
	if a != nil && a.slab != nil {
		prepackPut(a.slab)
		a.slab, a.blocks = nil, nil
	}
}

// Blocks returns a's packed K-blocks, in order, for a caller that
// schedules the micro-kernel over them itself (the offload engine); a
// keeps owning them.
func (a *PrepackedA[T]) Blocks() []pack.AOf[T] { return a.blocks }

// PrepackA packs alpha·a (no transpose).
func PrepackA[T matrix.Float](a *matrix.Of[T], alpha T) *PrepackedA[T] {
	m, k := a.Rows, a.Cols
	tileM := pack.DefaultTileMOf[T]()
	rows := (m + tileM - 1) / tileM * tileM
	slab := prepackTake[T](rows * k)
	p := &PrepackedA[T]{m: m, k: k, slab: slab, blocks: make([]pack.AOf[T], 0, (k+packKC-1)/packKC)}
	for k0 := 0; k0 < k; k0 += packKC {
		kb := min(packKC, k-k0)
		p.blocks = append(p.blocks, pack.AOf[T]{M: m, K: kb, TileM: tileM, Data: (*slab)[rows*k0 : rows*(k0+kb)]})
		blk := &p.blocks[len(p.blocks)-1]
		for t := range blk.Tiles() {
			pack.PackATileOp(blk, a, false, alpha, k0, t)
		}
	}
	state[T]().bytes.Load().Add(sizeOf[T]() * int64(len(*slab)))
	return p
}

// PrepackedB is B packed once into the tile layout, one packed block per
// K-block; its storage is recycled through perType.bSlabs.
type PrepackedB[T matrix.Float] struct {
	k, n int
	s    *bSlab[T]
}

// bSlab is what PrepackB draws from its pool: the packed data and the
// block headers over it, both reused by the next operand.
type bSlab[T matrix.Float] struct {
	data   []T
	blocks []pack.BOf[T]
}

// Release recycles the packed buffer; see (*PrepackedA).Release.
func (b *PrepackedB[T]) Release() {
	if b != nil && b.s != nil {
		state[T]().bSlabs.Put(b.s)
		b.s = nil
	}
}

// Blocks returns b's packed K-blocks; see (*PrepackedA).Blocks.
func (b *PrepackedB[T]) Blocks() []pack.BOf[T] { return b.s.blocks }

// PrepackB packs b (no transpose).
func PrepackB[T matrix.Float](b *matrix.Of[T]) *PrepackedB[T] {
	k, n := b.Rows, b.Cols
	// B operands get a pool of their own because they are small where A
	// operands are tall: in one shared pool every 32 KiB U block would
	// sooner or later sit in a slab grown for a megabyte L panel.
	st := state[T]()
	tileN := pack.TileNOf[T]()
	cols := (n + tileN - 1) / tileN * tileN
	s := pooled[bSlab[T]](&st.bSlabs)
	if cap(s.data) < cols*k {
		s.data = make([]T, cols*k)
	}
	s.data, s.blocks = s.data[:cols*k], s.blocks[:0]
	for k0 := 0; k0 < k; k0 += packKC {
		kb := min(packKC, k-k0)
		s.blocks = append(s.blocks, pack.BOf[T]{K: kb, N: n, Data: s.data[cols*k0 : cols*(k0+kb)]})
		blk := &s.blocks[len(s.blocks)-1]
		for t := range blk.Tiles() {
			pack.PackBTileOp(blk, b, false, k0, t)
		}
	}
	st.bytes.Load().Add(sizeOf[T]() * int64(len(s.data)))
	return &PrepackedB[T]{k: k, n: n, s: s}
}

// GemmPrepacked computes C += (alpha·A)·B from prepacked operands (the
// alpha was folded into the A tiles at pack time; beta is fixed at 1):
// pack.Gemm over each K-block in order, exactly GemmPacked's schedule, so
// the result is bitwise identical to
// GemmPacked(false, false, alpha, a, b, 1, c, workers).
func GemmPrepacked[T matrix.Float](a *PrepackedA[T], b *PrepackedB[T], c *matrix.Of[T], workers int) {
	if a.k != b.k || c.Rows != a.m || c.Cols != b.n {
		panic("blas: GemmPrepacked dimension mismatch")
	}
	if a.m == 0 || b.n == 0 || a.k == 0 {
		return
	}
	st := state[T]()
	st.calls.Load().Inc()
	st.flops.Load().Add(2 * int64(a.m) * int64(b.n) * int64(a.k))
	for i := range a.blocks {
		pack.Gemm(&a.blocks[i], &b.s.blocks[i], c, workers)
	}
}

// scaleRows applies C *= beta row-wise (beta==0 stores exact zeros,
// clearing any NaN/Inf previously in C, matching the reference loops).
func scaleRows[T matrix.Float](c *matrix.Of[T], beta T, workers int) {
	if beta == 1 || c.Rows == 0 || c.Cols == 0 {
		return
	}
	pool.Do(c.Rows, workers, func(i int) {
		row := c.Row(i)
		if beta == 0 {
			clear(row)
			return
		}
		scal(beta, row)
	})
}
