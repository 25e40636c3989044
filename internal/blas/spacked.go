package blas

import (
	"sync"

	"phihpl/internal/matrix"
	"phihpl/internal/pack"
	"phihpl/internal/pool"
)

// The single-precision packed-tile fast path: the SGEMM analogue of
// DgemmPacked, built from the same parts — operands packed per K-block
// into the tile layout (A in 32×k column-major tiles, B in k×16 row-major
// tiles, the SP vector being 16 lanes wide), packing and the tile grid
// distributed over the persistent worker pool, and the register-blocked
// micro-kernel (vector FMA where the CPU has it, portable scalar
// otherwise) doing the flops.
//
// The bitwise-reproducibility contract of the float64 path carries over:
// the value of every C element depends only on its row of alpha·op(A),
// its column of op(B), beta·C and the K-block boundaries (a function of k
// alone) — never on the worker count, the tile the element lands in, or
// how the m×n iteration space is partitioned. The mixed-precision LU
// driver splits trailing updates into differently-shaped calls with equal
// k, and this property keeps the FP32 factorization deterministic.

// packBuf32 is a reusable set of packing buffers plus the packed-operand
// headers, recycled through a sync.Pool so steady-state SgemmPacked calls
// allocate nothing beyond two per-call closures (see packBuf).
type packBuf32 struct {
	a, b []float32
	pa   pack.A32
	pbs  []pack.B32 // one header per B replica group
}

var packBufs32 = sync.Pool{New: func() any { return new(packBuf32) }}

// take returns slices of exactly na and nb elements, growing the backing
// buffers only when a larger shape arrives. Contents are stale; the
// packers overwrite every element including padding.
func (pb *packBuf32) take(na, nb int) ([]float32, []float32) {
	if cap(pb.a) < na {
		pb.a = make([]float32, na)
	}
	if cap(pb.b) < nb {
		pb.b = make([]float32, nb)
	}
	return pb.a[:na], pb.b[:nb]
}

// SgemmPacked computes C = alpha*op(A)*op(B) + beta*C in single precision
// through the packed-tile parallel fast path. With the scalar micro-kernel
// it is bit-for-bit identical to the Sgemm reference loop (same K-block
// grouping, same unfused multiply-add); with the vector FMA kernel it is
// element-wise within O(k)·ulp (products are fused) and an order of
// magnitude faster — the SP-vector advantage of the paper's Table II that
// no scalar loop can reproduce. Sgemm remains the always-available oracle.
func SgemmPacked(transA, transB bool, alpha float32, a, b *matrix.Dense32, beta float32, c *matrix.Dense32, workers int) {
	m, k := opDims32(a, transA)
	k2, n := opDims32(b, transB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panic("blas: SgemmPacked dimension mismatch")
	}
	scaleRows32(c, beta, workers)
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}

	aTiles := (m + pack.DefaultTileM32 - 1) / pack.DefaultTileM32
	bTiles := (n + pack.TileN32 - 1) / pack.TileN32
	groups := bGroups()
	pb := packBufs32.Get().(*packBuf32)
	defer packBufs32.Put(pb)
	pa := &pb.pa
	if cap(pb.pbs) < groups {
		pb.pbs = make([]pack.B32, groups)
	}
	pbs := pb.pbs[:groups]

	rec := obsTrace.Load()
	mSPackedCalls.Load().Inc()
	mSPackedFlops.Load().Add(2 * int64(m) * int64(n) * int64(k))

	// As in DgemmPacked: headers live in the recycled buffer, the two
	// region closures are hoisted out of the K-block loop, and each
	// socket group packs (and later streams) its own B replica.
	var k0, kb int
	packFn := func(t int) {
		if t < aTiles {
			pack.PackATileOp32(pa, a, transA, alpha, k0, t)
		} else {
			t -= aTiles
			pack.PackBTileOp32(&pbs[t/bTiles], b, transB, k0, t%bTiles)
		}
	}
	// Outer product: the (aTile, bTile) grid updates disjoint 32×16
	// blocks of C, claimed by atomic work stealing over the pool.
	compFn := func(j, g int) {
		ta, tb := j/bTiles, j%bTiles
		rows := pa.TileRows(ta)
		if g >= len(pbs) {
			g = 0 // replication disabled under a multi-group pool: one shared B
		}
		pkb := &pbs[g]
		cols := pkb.TileCols(tb)
		off := ta*pack.DefaultTileM32*c.Stride + tb*pack.TileN32
		pack.MicroKernel32(pa.Tile(ta), pa.TileM, kb, pkb.Tile(tb), c.Data[off:], c.Stride, rows, cols)
	}

	for k0 = 0; k0 < k; k0 += packKC {
		kb = packKC
		if k0+kb > k {
			kb = k - k0
		}
		nb := bTiles * kb * pack.TileN32
		aData, bData := pb.take(aTiles*pack.DefaultTileM32*kb, groups*nb)
		pa.M, pa.K, pa.TileM, pa.Data = m, kb, pack.DefaultTileM32, aData
		for g := range pbs {
			pbs[g].K, pbs[g].N, pbs[g].Data = kb, n, bData[g*nb:(g+1)*nb]
		}
		mSBytesPacked.Load().Add(4 * int64(len(aData)+len(bData)))

		var t0 float64
		if rec != nil {
			t0 = rec.Start()
		}
		pool.Do(aTiles+groups*bTiles, workers, packFn)
		if rec != nil {
			rec.Since(0, "spack", k0/packKC, t0)
			t0 = rec.Start()
		}
		pool.DoGrouped(aTiles*bTiles, workers, compFn)
		if rec != nil {
			rec.Since(0, "scompute", k0/packKC, t0)
		}
	}
}

// SRankKUpdate computes C -= A*B in single precision (the FP32 LU trailing
// update; alpha=-1, beta=1 in BLAS terms). Updates deep enough to amortize
// packing (k >= PackedMinK, the same crossover as RankKUpdate — it
// inspects k only, never m or n) go through SgemmPacked; thin updates keep
// the reference loop, whose lower setup cost wins for the narrow panels.
func SRankKUpdate(a, b, c *matrix.Dense32, workers int) {
	if a.Cols >= PackedMinK {
		SgemmPacked(false, false, -1, a, b, 1, c, workers)
		return
	}
	SgemmDense(false, false, -1, a, b, 1, c)
}

// scaleRows32 applies C *= beta row-wise (beta==0 stores exact zeros,
// clearing any NaN/Inf previously in C, matching the Sgemm reference).
func scaleRows32(c *matrix.Dense32, beta float32, workers int) {
	if beta == 1 || c.Rows == 0 || c.Cols == 0 {
		return
	}
	pool.Do(c.Rows, workers, func(i int) {
		row := c.Row(i)
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			return
		}
		for j := range row {
			row[j] *= beta
		}
	})
}
