package hpl

import (
	"context"
	"fmt"
	"time"

	"phihpl/internal/blas"
	"phihpl/internal/cluster"
	"phihpl/internal/lu"
	"phihpl/internal/matrix"
	"phihpl/internal/pool"
)

// The mixed-precision 2D pipeline (HPL-MxP on the block-cyclic grid):
// every factorization-phase structure — panel gather/factor/scatter, the
// coalesced row swaps, the L and U tree broadcasts, and the packed
// trailing updates — runs in single precision, halving both the wire
// bytes and the GEMM memory traffic, while rank 0 keeps the FP64 original
// and recovers a double-precision-quality solution with the shared
// iterative-refinement ladder (lu.RefineMixed). The schedule drivers
// (stageNone / stageBasic / stagePipelined) are precision-agnostic: they
// call the same leaf operations, which dispatch here when the grid runs
// mixed, so every look-ahead mode and grid shape produces bitwise
// identical FP32 factors — the same worker/partition invariance the FP64
// path proves, carried over to the SGEMM fast path.

func (g *grid2d) mixed() bool { return g.prec == lu.PrecisionMixed }

// ctxOrBG returns the grid's context, never nil.
func (g *grid2d) ctxOrBG() context.Context {
	if g.ctx == nil {
		return context.Background()
	}
	return g.ctx
}

// mixedTestSystem, when non-nil, replaces the seeded random system in the
// mixed-precision scatter — a test hook for must-fall-back goldens
// (ill-conditioned systems the FP32 route cannot solve). The hook must be
// deterministic: every rank calls it independently and materializes the
// full system (test-scale only).
var mixedTestSystem func(n int, seed uint64) (*matrix.Dense, []float64)

func flatten32(m *matrix.Dense32) []float32 {
	out := make([]float32, 0, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// unflatten32 reshapes a received FP32 payload, rejecting shape
// mismatches as a typed error.
func unflatten32(data []float32, rows, cols int) (*matrix.Dense32, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("hpl: payload %d != %dx%d elements", len(data), rows, cols)
	}
	return &matrix.Dense32{Rows: rows, Cols: cols, Stride: cols, Data: data}, nil
}

// scatter32 generates the seeded system, rounds the owned blocks to
// single precision (round-to-nearest per element — the demotion that
// starts HPL-MxP) and keeps the FP64 original only on rank 0, which needs
// it for residuals and refinement. The FP32 blocks are bitwise identical
// across ranks regardless of whether they came from the materialized
// matrix or the jump-ahead generator.
func (g *grid2d) scatter32(seed uint64) (*matrix.Dense, []float64) {
	g.seed = seed
	var full *matrix.Dense
	var rhs []float64
	if hook := mixedTestSystem; hook != nil {
		full, rhs = hook(g.n, seed)
	} else if g.me() == 0 {
		full, rhs = matrix.RandomSystem(g.n, seed)
	}
	g.blocks32 = make(map[[2]int]*matrix.Dense32)
	for i := 0; i < g.nBlocks; i++ {
		for j := 0; j < g.nBlocks; j++ {
			if op, oq := g.owner(i, j); op == g.p && oq == g.q {
				r, c := g.blockDims(i, j)
				if full != nil {
					g.blocks32[[2]int{i, j}] = full.View(i*g.nb, j*g.nb, r, c).ToDense32()
				} else {
					g.blocks32[[2]int{i, j}] = matrix.RandomSubmatrix(g.n, seed, i*g.nb, j*g.nb, r, c).ToDense32()
				}
			}
		}
	}
	g.globalPiv = make([]int, g.n)
	for i := range g.globalPiv {
		g.globalPiv[i] = i
	}
	g.pivots = make([][]int, g.nBlocks)
	g.factored = make([]bool, g.nBlocks)
	g.lSent = make([]bool, g.nBlocks)
	g.stageL21v32 = make([]*matrix.Dense32, g.nBlocks)
	g.stageU12v32 = make([]*matrix.Dense32, g.nBlocks)
	g.packedL32 = make([]*blas.PrepackedA[float32], g.nBlocks)
	if g.me() != 0 {
		full, rhs = nil, nil // hook path: only the root verifies
	}
	return full, rhs
}

func clearDense32(s []*matrix.Dense32) {
	for i := range s {
		s[i] = nil
	}
}

// factorPanel32 is the synchronous (LookaheadNone) panel factorization in
// single precision: gather block column k on the diagonal owner, factor
// with Getf2, scatter back, flat pivot fan-out — message for message the
// FP64 seed schedule, with half-width payloads.
func (g *grid2d) factorPanel32(k int) ([]int, error) {
	rootP, rootQ := g.owner(k, k)
	root := g.rank(rootP, rootQ)
	_, w := g.blockDims(k, k)
	panelRows := g.n - k*g.nb

	inPanelColumn := g.q == rootQ
	if inPanelColumn && g.me() != root {
		for i := k; i < g.nBlocks; i++ {
			if op, _ := g.owner(i, k); op == g.p {
				if err := g.c.Send32(root, tag2dGatherBase+k*g.nBlocks+i, flatten32(g.blocks32[[2]int{i, k}]), nil); err != nil {
					return nil, err
				}
			}
		}
	}

	var piv []int
	if g.me() == root {
		panel := matrix.NewDense32(panelRows, w)
		for i := k; i < g.nBlocks; i++ {
			r, _ := g.blockDims(i, k)
			dst := panel.View(i*g.nb-k*g.nb, 0, r, w)
			if op, _ := g.owner(i, k); op == g.p {
				dst.CopyFrom(g.blocks32[[2]int{i, k}])
			} else {
				msg, err := g.c.Recv(g.rank(op, rootQ), tag2dGatherBase+k*g.nBlocks+i)
				if err != nil {
					return nil, err
				}
				seg, err := unflatten32(msg.F32, r, w)
				if err != nil {
					return nil, err
				}
				dst.CopyFrom(seg)
			}
		}
		piv = make([]int, w)
		if err := blas.Getf2(panel, piv); err != nil && g.firstError == nil {
			g.firstError = blas.OffsetSingular(err, k*g.nb)
		}
		for i := k; i < g.nBlocks; i++ {
			r, _ := g.blockDims(i, k)
			seg := panel.View(i*g.nb-k*g.nb, 0, r, w)
			if op, _ := g.owner(i, k); op == g.p {
				g.blocks32[[2]int{i, k}].CopyFrom(seg)
			} else {
				if err := g.c.Send32(g.rank(op, rootQ), tag2dGatherBase+k*g.nBlocks+i, flatten32(seg), nil); err != nil {
					return nil, err
				}
			}
		}
	} else if inPanelColumn {
		for i := k; i < g.nBlocks; i++ {
			if op, _ := g.owner(i, k); op == g.p {
				r, _ := g.blockDims(i, k)
				msg, err := g.c.Recv(root, tag2dGatherBase+k*g.nBlocks+i)
				if err != nil {
					return nil, err
				}
				seg, err := unflatten32(msg.F32, r, w)
				if err != nil {
					return nil, err
				}
				g.blocks32[[2]int{i, k}].CopyFrom(seg)
			}
		}
	}

	if g.me() == root {
		for r := 0; r < g.P*g.Q; r++ {
			if r != root {
				if err := g.c.Send(r, tag2dPivBase+k, nil, piv); err != nil {
					return nil, err
				}
			}
		}
	} else {
		msg, err := g.c.Recv(root, tag2dPivBase+k)
		if err != nil {
			return nil, err
		}
		piv = msg.I
	}
	if len(piv) != w {
		return nil, fmt.Errorf("hpl: stage %d pivot payload has %d entries, want %d", k, len(piv), w)
	}
	g.recordPivots(k, piv)
	return piv, nil
}

// factorPanelCore32 is the batched (basic/pipelined) panel factorization
// in single precision: gather/factor/scatter over one message per rank
// pair. Only panel-column ranks participate; the root returns the pivots.
func (g *grid2d) factorPanelCore32(k int) ([]int, error) {
	rootP, rootQ := g.owner(k, k)
	root := g.rank(rootP, rootQ)
	if g.q != rootQ {
		return nil, nil
	}
	_, w := g.blockDims(k, k)
	mine, total := g.panelSegs(k)

	if g.me() != root {
		if total == 0 {
			return nil, nil
		}
		buf := make([]float32, 0, total)
		for _, i := range mine {
			buf = append(buf, flatten32(g.blocks32[[2]int{i, k}])...)
		}
		if err := g.c.Send32(root, tag2dGatherBase+k, buf, nil); err != nil {
			return nil, err
		}
		msg, err := g.c.Recv(root, tag2dGatherBase+k)
		if err != nil {
			return nil, err
		}
		if len(msg.F32) != total {
			return nil, fmt.Errorf("hpl: stage %d factored panel payload %d != %d", k, len(msg.F32), total)
		}
		off := 0
		for _, i := range mine {
			r, _ := g.blockDims(i, k)
			seg, err := unflatten32(msg.F32[off:off+r*w], r, w)
			if err != nil {
				return nil, err
			}
			g.blocks32[[2]int{i, k}].CopyFrom(seg)
			off += r * w
		}
		return nil, nil
	}

	panelRows := g.n - k*g.nb
	panel := matrix.NewDense32(panelRows, w)
	for pp := 0; pp < g.P; pp++ {
		var rows []int
		rowTotal := 0
		for i := k; i < g.nBlocks; i++ {
			if i%g.P == pp {
				r, _ := g.blockDims(i, k)
				rows = append(rows, i)
				rowTotal += r * w
			}
		}
		if rowTotal == 0 {
			continue
		}
		if pp == g.p {
			for _, i := range rows {
				r, _ := g.blockDims(i, k)
				panel.View((i-k)*g.nb, 0, r, w).CopyFrom(g.blocks32[[2]int{i, k}])
			}
			continue
		}
		msg, err := g.c.Recv(g.rank(pp, rootQ), tag2dGatherBase+k)
		if err != nil {
			return nil, err
		}
		if len(msg.F32) != rowTotal {
			return nil, fmt.Errorf("hpl: stage %d gathered panel payload %d != %d", k, len(msg.F32), rowTotal)
		}
		off := 0
		for _, i := range rows {
			r, _ := g.blockDims(i, k)
			seg, err := unflatten32(msg.F32[off:off+r*w], r, w)
			if err != nil {
				return nil, err
			}
			panel.View((i-k)*g.nb, 0, r, w).CopyFrom(seg)
			off += r * w
		}
	}
	piv := make([]int, w)
	if err := blas.Getf2(panel, piv); err != nil && g.firstError == nil {
		g.firstError = blas.OffsetSingular(err, k*g.nb)
	}
	for pp := 0; pp < g.P; pp++ {
		var rows []int
		rowTotal := 0
		for i := k; i < g.nBlocks; i++ {
			if i%g.P == pp {
				r, _ := g.blockDims(i, k)
				rows = append(rows, i)
				rowTotal += r * w
			}
		}
		if rowTotal == 0 {
			continue
		}
		if pp == g.p {
			for _, i := range rows {
				r, _ := g.blockDims(i, k)
				g.blocks32[[2]int{i, k}].CopyFrom(panel.View((i-k)*g.nb, 0, r, w))
			}
			continue
		}
		buf := make([]float32, 0, rowTotal)
		for _, i := range rows {
			r, _ := g.blockDims(i, k)
			buf = append(buf, flatten32(panel.View((i-k)*g.nb, 0, r, w))...)
		}
		if err := g.c.Send32(g.rank(pp, rootQ), tag2dGatherBase+k, buf, nil); err != nil {
			return nil, err
		}
	}
	return piv, nil
}

// swapOne32 exchanges one pivot row pair within block column jb in single
// precision (the synchronous schedules' per-pivot exchange).
func (g *grid2d) swapOne32(k, j, jb, r1, r2, i1, i2, p1, p2 int) error {
	tag := tag2dSwapBase + (k*g.nb+j)*g.nBlocks + jb
	switch {
	case p1 == g.p && p2 == g.p:
		b1 := g.blocks32[[2]int{i1, jb}]
		b2 := g.blocks32[[2]int{i2, jb}]
		l1, l2 := r1%g.nb, r2%g.nb
		row1, row2 := b1.Row(l1), b2.Row(l2)
		for x := range row1 {
			row1[x], row2[x] = row2[x], row1[x]
		}
	case p1 == g.p:
		b := g.blocks32[[2]int{i1, jb}]
		row := b.Row(r1 % g.nb)
		if err := g.c.Send32(g.rank(p2, g.q), tag, row, nil); err != nil {
			return err
		}
		msg, err := g.c.Recv(g.rank(p2, g.q), tag)
		if err != nil {
			return err
		}
		if len(msg.F32) != len(row) {
			return fmt.Errorf("hpl: swap row payload %d != %d", len(msg.F32), len(row))
		}
		copy(row, msg.F32)
	case p2 == g.p:
		b := g.blocks32[[2]int{i2, jb}]
		row := b.Row(r2 % g.nb)
		if err := g.c.Send32(g.rank(p1, g.q), tag, row, nil); err != nil {
			return err
		}
		msg, err := g.c.Recv(g.rank(p1, g.q), tag)
		if err != nil {
			return err
		}
		if len(msg.F32) != len(row) {
			return fmt.Errorf("hpl: swap row payload %d != %d", len(msg.F32), len(row))
		}
		copy(row, msg.F32)
	}
	return nil
}

// broadcastL32 is the synchronous flat L fan-out in single precision.
func (g *grid2d) broadcastL32(k int) error {
	rootP, rootQ := g.owner(k, k)
	g.stageL11v32 = nil
	clearDense32(g.stageL21v32)

	for i := k; i < g.nBlocks; i++ {
		op := i % g.P
		if op != g.p {
			continue
		}
		var blk *matrix.Dense32
		if g.q == rootQ {
			blk = g.blocks32[[2]int{i, k}]
			for qq := 0; qq < g.Q; qq++ {
				if qq != g.q {
					if err := g.c.Send32(g.rank(g.p, qq), tag2dLBase+k*g.nBlocks+i, flatten32(blk), nil); err != nil {
						return err
					}
				}
			}
		} else {
			r, c := g.blockDims(i, k)
			msg, err := g.c.Recv(g.rank(g.p, rootQ), tag2dLBase+k*g.nBlocks+i)
			if err != nil {
				return err
			}
			if blk, err = unflatten32(msg.F32, r, c); err != nil {
				return err
			}
		}
		if i == k {
			if g.p == rootP {
				g.stageL11v32 = blk
			}
		} else {
			g.stageL21v32[i] = blk
		}
	}
	return nil
}

// solveAndBroadcastU32 is the synchronous bulk U phase in single
// precision: Trsm on the pivot process row, flat fan-out down columns.
func (g *grid2d) solveAndBroadcastU32(k int) error {
	rootP, _ := g.owner(k, k)
	clearDense32(g.stageU12v32)

	for j := k + 1; j < g.nBlocks; j++ {
		_, oq := g.owner(k, j)
		if oq != g.q {
			continue
		}
		var u *matrix.Dense32
		if g.p == rootP {
			u = g.blocks32[[2]int{k, j}]
			blas.Trsm(blas.Left, blas.Lower, false, blas.Unit, 1, g.stageL11v32, u)
			for pp := 0; pp < g.P; pp++ {
				if pp != g.p {
					if err := g.c.Send32(g.rank(pp, g.q), tag2dUBase+k*g.nBlocks+j, flatten32(u), nil); err != nil {
						return err
					}
				}
			}
		} else {
			r, c := g.blockDims(k, j)
			msg, err := g.c.Recv(g.rank(rootP, g.q), tag2dUBase+k*g.nBlocks+j)
			if err != nil {
				return err
			}
			if u, err = unflatten32(msg.F32, r, c); err != nil {
				return err
			}
		}
		g.stageU12v32[j] = u
	}
	return nil
}

// update32 applies A(I,J) -= L21(I)·U12(J) to every owned trailing block
// in single precision (the synchronous schedule's bulk update). The
// offload engine computes in FP64 only, so a mixed hybrid solve routes
// its updates through the FP32 packed host path — the same crossover as
// the sequential FP32 factorization, keeping the 2D mixed solver bitwise
// identical to it regardless of grid shape.
func (g *grid2d) update32(k int) error {
	for ij, blk := range g.blocks32 {
		i, j := ij[0], ij[1]
		if i <= k || j <= k {
			continue
		}
		l := g.stageL21v32[i]
		u := g.stageU12v32[j]
		if l == nil || u == nil {
			return fmt.Errorf("hpl: rank (%d,%d) missing stage-%d operands for block (%d,%d)",
				g.p, g.q, k, i, j)
		}
		blas.RankKUpdate(l, u, blk, 1)
	}
	return nil
}

// sendLRoot32 posts this rank's batched FP32 L payload for stage k to its
// binomial-tree children along the process row.
func (g *grid2d) sendLRoot32(k int) error {
	_, rootQ := g.owner(k, k)
	g.lSent[k] = true
	if g.Q == 1 {
		return nil
	}
	mine, total := g.panelSegs(k)
	if total == 0 {
		return nil
	}
	buf := g.scratch32[:0]
	for _, i := range mine {
		blk := g.blocks32[[2]int{i, k}]
		for r := 0; r < blk.Rows; r++ {
			buf = append(buf, blk.Row(r)...)
		}
	}
	g.scratch32 = buf[:0]
	_, children := cluster.BcastTree(g.Q, rootQ, g.q)
	for _, cq := range children {
		if err := g.c.Send32(g.rank(g.p, cq), tag2dLBase+k, buf, nil); err != nil {
			return err
		}
	}
	return nil
}

// recvL32 makes stage k's FP32 L panel available on every rank — the
// mixed-precision twin of recvL, tree relay and clone semantics included.
func (g *grid2d) recvL32(k int) error {
	rootP, rootQ := g.owner(k, k)
	g.stageL11v32 = nil
	clearDense32(g.stageL21v32)
	release := !g.pipe.deferred()
	for i, pa := range g.packedL32 {
		if release {
			pa.Release()
		}
		g.packedL32[i] = nil
	}
	if g.q == rootQ && !g.lSent[k] {
		if err := g.sendLRoot32(k); err != nil {
			return err
		}
	}
	g.lSent[k] = false

	_, w := g.blockDims(k, k)
	mine, total := g.panelSegs(k)
	if total == 0 {
		return nil
	}
	if g.q == rootQ {
		for _, i := range mine {
			blk := g.blocks32[[2]int{i, k}]
			if g.pipe.deferred() {
				// Queued GEMMs may read these blocks after stage k+1 has
				// started swapping rows of the real panel column.
				blk = blk.Clone()
			}
			if i == k {
				if g.p == rootP {
					g.stageL11v32 = blk
				}
			} else {
				g.stageL21v32[i] = blk
			}
		}
		return nil
	}
	parent, children := cluster.BcastTree(g.Q, rootQ, g.q)
	msg, err := g.c.Recv(g.rank(g.p, parent), tag2dLBase+k)
	if err != nil {
		return err
	}
	if len(msg.F32) != total {
		return fmt.Errorf("hpl: stage %d L payload %d != %d", k, len(msg.F32), total)
	}
	for _, cq := range children {
		if err := g.c.Send32(g.rank(g.p, cq), tag2dLBase+k, msg.F32, nil); err != nil {
			return err
		}
	}
	off := 0
	for _, i := range mine {
		r, _ := g.blockDims(i, k)
		blk, err := unflatten32(msg.F32[off:off+r*w], r, w)
		if err != nil {
			return err
		}
		off += r * w
		if i == k {
			if g.p == rootP {
				g.stageL11v32 = blk
			}
		} else {
			g.stageL21v32[i] = blk
		}
	}
	return nil
}

// solveUColumn32 computes U12(k,j) by Trsm on the pivot process row and
// tree-broadcasts the FP32 payload down the process column.
func (g *grid2d) solveUColumn32(k, j int) error {
	rootP, _ := g.owner(k, k)
	var u *matrix.Dense32
	if g.p == rootP {
		u = g.blocks32[[2]int{k, j}]
		blas.Trsm(blas.Left, blas.Lower, false, blas.Unit, 1, g.stageL11v32, u)
	}
	if g.P > 1 {
		tag := tag2dUBase + k*g.nBlocks + j
		var payload []float32
		parent, children := cluster.BcastTree(g.P, rootP, g.p)
		if g.p == rootP {
			payload = g.scratch32[:0]
			for r := 0; r < u.Rows; r++ {
				payload = append(payload, u.Row(r)...)
			}
			g.scratch32 = payload[:0]
		} else {
			r, c := g.blockDims(k, j)
			msg, err := g.c.Recv(g.rank(parent, g.q), tag)
			if err != nil {
				return err
			}
			if u, err = unflatten32(msg.F32, r, c); err != nil {
				return err
			}
			payload = msg.F32
		}
		for _, cp := range children {
			if err := g.c.Send32(g.rank(cp, g.q), tag, payload, nil); err != nil {
				return err
			}
		}
	}
	g.stageU12v32[j] = u
	return nil
}

// prepackL32 returns stage-wide −L21(i) in packed FP32 tile form, packing
// on first use and caching until recvL32 opens the next stage. Protocol
// goroutine only.
func (g *grid2d) prepackL32(i int, l *matrix.Dense32) *blas.PrepackedA[float32] {
	if pa := g.packedL32[i]; pa != nil {
		return pa
	}
	pa := blas.PrepackA(l, -1)
	g.packedL32[i] = pa
	return pa
}

// prepackU32 packs column j's U block once for reuse across the column's
// block rows, or returns nil outside the packed fast path. The gate
// depends on k alone — the RankKUpdate crossover — and deliberately
// ignores offloadUpdates: the offload engine is FP64-only, so mixed
// hybrid updates take the same FP32 host path as the plain driver.
func (g *grid2d) prepackU32(u *matrix.Dense32) *blas.PrepackedB[float32] {
	if u == nil || u.Rows < blas.PackedMinK {
		return nil
	}
	return blas.PrepackB(u)
}

// updateColumn32 applies the stage-k trailing update to the owned blocks
// of column j in single precision, synchronously, sharing packed operands
// across the column.
func (g *grid2d) updateColumn32(k, j int) error {
	u := g.stageU12v32[j]
	pu := g.prepackU32(u)
	defer pu.Release()
	for i := k + 1; i < g.nBlocks; i++ {
		if i%g.P != g.p {
			continue
		}
		blk := g.blocks32[[2]int{i, j}]
		l := g.stageL21v32[i]
		if l == nil || u == nil || blk == nil {
			return fmt.Errorf("hpl: rank (%d,%d) missing stage-%d operands for block (%d,%d)", g.p, g.q, k, i, j)
		}
		if pu != nil {
			blas.GemmPrepacked(g.prepackL32(i, l), pu, blk, 1)
		} else {
			blas.RankKUpdate(l, u, blk, 1)
		}
	}
	return nil
}

// swapExchange32 is the pipelined schedule's coalesced row exchange with
// FP32 payloads: one packed Send32 per peer process row per stage.
func (g *grid2d) swapExchange32(k int, pairs []swapPair, order []int) (*stageSwap, error) {
	s := &stageSwap{stash32: map[int][]float32{}, off: make([]int, g.P)}
	if len(pairs) == 0 {
		return s, nil
	}
	s.routes = make([]swapRoute, len(pairs))
	sendIdx := make([][]int, g.P)
	s.recvIdx = make([][]int, g.P)
	for x, pr := range pairs {
		s.routes[x] = swapRoute{pr.src / g.nb, pr.src % g.nb, pr.slot / g.nb, pr.slot % g.nb}
		sp, dp := g.rowProc(pr.src), g.rowProc(pr.slot)
		switch {
		case sp == g.p && dp == g.p:
			s.localIdx = append(s.localIdx, x)
		case sp == g.p:
			sendIdx[dp] = append(sendIdx[dp], x)
		case dp == g.p:
			s.recvIdx[sp] = append(s.recvIdx[sp], x)
		}
	}
	tag := tag2dSwapBase + k
	for pd := 0; pd < g.P; pd++ {
		if len(sendIdx[pd]) == 0 {
			continue
		}
		buf := g.scratch32[:0]
		for _, jb := range order {
			_, w := g.blockDims(0, jb)
			for _, x := range sendIdx[pd] {
				rt := s.routes[x]
				buf = append(buf, g.blocks32[[2]int{rt.srcI, jb}].Row(rt.srcR)[:w]...)
			}
		}
		g.scratch32 = buf[:0]
		if err := g.c.Send32(g.rank(pd, g.q), tag, buf, nil); err != nil {
			return nil, err
		}
	}
	wTotal := 0
	for _, jb := range order {
		_, w := g.blockDims(0, jb)
		wTotal += w
	}
	for ps := 0; ps < g.P; ps++ {
		if len(s.recvIdx[ps]) == 0 {
			continue
		}
		msg, err := g.c.Recv(g.rank(ps, g.q), tag)
		if err != nil {
			return nil, err
		}
		if want := len(s.recvIdx[ps]) * wTotal; len(msg.F32) != want {
			return nil, fmt.Errorf("hpl: stage %d packed swap payload %d != %d", k, len(msg.F32), want)
		}
		s.stash32[ps] = msg.F32
	}
	return s, nil
}

// apply32 replays the stage permutation on block column jb against the
// FP32 blocks; see (*stageSwap).apply for the ordering argument.
func (s *stageSwap) apply32(g *grid2d, jb int) {
	_, w := g.blockDims(0, jb)
	if len(s.localIdx) > 0 {
		if cap(s.snap32) < len(s.localIdx)*w {
			s.snap32 = make([]float32, len(s.localIdx)*w)
		}
		for y, x := range s.localIdx {
			rt := s.routes[x]
			copy(s.snap32[y*w:(y+1)*w], g.blocks32[[2]int{rt.srcI, jb}].Row(rt.srcR)[:w])
		}
		for y, x := range s.localIdx {
			rt := s.routes[x]
			copy(g.blocks32[[2]int{rt.slotI, jb}].Row(rt.slotR)[:w], s.snap32[y*w:(y+1)*w])
		}
	}
	for ps, idx := range s.recvIdx {
		if len(idx) == 0 {
			continue
		}
		payload, off := s.stash32[ps], s.off[ps]
		for _, x := range idx {
			rt := s.routes[x]
			copy(g.blocks32[[2]int{rt.slotI, jb}].Row(rt.slotR)[:w], payload[off:off+w])
			off += w
		}
		s.off[ps] = off
	}
}

// enqueueUpdate32 hands column j's stage-k FP32 trailing update to the
// asynchronous worker — the mixed twin of enqueueUpdate, prepack cache
// and inline-slice reuse included.
func (g *grid2d) enqueueUpdate32(k, j int) {
	var blocks, ls []*matrix.Dense32
	var rows []int
	if !g.pipe.deferred() {
		blocks, ls, rows = g.jobBlocks32[:0], g.jobLs32[:0], g.jobRows[:0]
	}
	for i := k + 1; i < g.nBlocks; i++ {
		if i%g.P != g.p {
			continue
		}
		blocks = append(blocks, g.blocks32[[2]int{i, j}])
		ls = append(ls, g.stageL21v32[i])
		rows = append(rows, i)
	}
	if len(blocks) == 0 {
		return
	}
	u := g.stageU12v32[j]
	pu := g.prepackU32(u)
	var pls []*blas.PrepackedA[float32]
	if pu != nil {
		if g.pipe.deferred() {
			pls = make([]*blas.PrepackedA[float32], len(ls))
		} else {
			if cap(g.jobPls32) < len(ls) {
				g.jobPls32 = make([]*blas.PrepackedA[float32], len(ls))
			}
			pls = g.jobPls32[:len(ls)]
		}
		for x, l := range ls {
			if l == nil {
				pu.Release()
				pu, pls = nil, nil
				break
			}
			pls[x] = g.prepackL32(rows[x], l)
		}
	}
	if !g.pipe.deferred() {
		g.jobBlocks32, g.jobLs32, g.jobRows = blocks[:0], ls[:0], rows[:0]
	}
	g.pipe.enqueue(j, pipeJob{
		ctx:      g.ctx,
		blocks32: blocks,
		ls32:     ls,
		u32:      u,
		pls32:    pls,
		pu32:     pu,
		rec:      g.rec,
		lane:     g.P*g.Q + g.me(),
		iter:     k,
	})
}

// runJob32 executes one FP32 column update on the pipeline worker; called
// from runJob under its recover barrier.
func (p *pipeline) runJob32(job pipeJob) {
	defer job.pu32.Release()
	for i, l := range job.ls32 {
		if l == nil || job.u32 == nil || job.blocks32[i] == nil {
			p.setErr(fmt.Errorf("hpl: pipelined update missing operands (stage %d)", job.iter))
			return
		}
	}
	ts := job.rec.Start()
	n := len(job.blocks32)
	switch {
	case job.pu32 != nil && n > 1 && pool.Size() > 1:
		pool.Do(n, pool.Size(), func(i int) {
			blas.GemmPrepacked(job.pls32[i], job.pu32, job.blocks32[i], 1)
		})
	case job.pu32 != nil:
		for i := 0; i < n; i++ {
			blas.GemmPrepacked(job.pls32[i], job.pu32, job.blocks32[i], 1)
		}
	case n > 1 && pool.Size() > 1:
		pool.Do(n, pool.Size(), func(i int) {
			blas.RankKUpdate(job.ls32[i], job.u32, job.blocks32[i], 1)
		})
	default:
		for i := 0; i < n; i++ {
			blas.RankKUpdate(job.ls32[i], job.u32, job.blocks32[i], 1)
		}
	}
	job.rec.Since(job.lane, "GEMM", job.iter, ts)
}

// gatherAndSolve32 assembles the FP32 factors on rank 0 and runs the FP64
// refinement ladder against them. A route the FP32 factors cannot finish
// — singular in single precision, stalled refinement, non-finite iterate
// — is reported through DistResult.Refine; the solve2D wrapper then
// re-runs the FP64 path in a fresh world (no FT restart is burned: the
// fallback is a precision decision, not a fault).
func (g *grid2d) gatherAndSolve32(full *matrix.Dense, rhs []float64, results []DistResult, errs []error) error {
	me := g.me()
	if me != 0 {
		buf := g.scratch32[:0]
		for i := 0; i < g.nBlocks; i++ {
			for j := 0; j < g.nBlocks; j++ {
				if blk, ok := g.blocks32[[2]int{i, j}]; ok {
					for r := 0; r < blk.Rows; r++ {
						buf = append(buf, blk.Row(r)...)
					}
				}
			}
		}
		g.scratch32 = buf[:0]
		return g.c.Send32(0, tag2dFinal, buf, singularFlag(g.firstError))
	}

	lu32 := matrix.NewDense32(g.n, g.n)
	for ij, blk := range g.blocks32 {
		r, c := g.blockDims(ij[0], ij[1])
		lu32.View(ij[0]*g.nb, ij[1]*g.nb, r, c).CopyFrom(blk)
	}
	firstErr := g.firstError
	for rk := 1; rk < g.P*g.Q; rk++ {
		msg, err := g.c.Recv(rk, tag2dFinal)
		if err != nil {
			return err
		}
		off := 0
		for i := 0; i < g.nBlocks; i++ {
			for j := 0; j < g.nBlocks; j++ {
				if op, oq := g.owner(i, j); g.rank(op, oq) != rk {
					continue
				}
				r, c := g.blockDims(i, j)
				if off+r*c > len(msg.F32) {
					return fmt.Errorf("hpl: rank %d final payload truncated at block (%d,%d)", rk, i, j)
				}
				dst := lu32.View(i*g.nb, j*g.nb, r, c)
				for y := 0; y < r; y++ {
					copy(dst.Row(y), msg.F32[off:off+c])
					off += c
				}
			}
		}
		if off != len(msg.F32) {
			return fmt.Errorf("hpl: rank %d final payload %d != %d", rk, len(msg.F32), off)
		}
		if e := singularFromFlag(msg.I); e != nil && firstErr == nil {
			firstErr = e
		}
	}

	base := DistResult{Ranks: g.P * g.Q, Panels: g.nBlocks}
	if firstErr != nil {
		// Zero/subnormal pivot in FP32 — the matrix may still factor fine
		// in FP64, so this is a fallback trigger, not a terminal error.
		base.Refine = &lu.MixedReport{FellBack: true, Reason: lu.FallbackSingular}
		results[0] = base
		return nil
	}
	x, res, iters, why, err := lu.RefineMixed(g.ctxOrBG(), full, lu32, g.globalPiv, rhs, g.rec)
	if err != nil {
		return err
	}
	if why != lu.FallbackNone {
		base.Refine = &lu.MixedReport{Iterations: iters, FellBack: true, Reason: why}
		results[0] = base
		return nil
	}
	var secs float64
	if !g.t0.IsZero() {
		secs = time.Since(g.t0).Seconds()
	}
	base.X = x
	base.Residual = res
	base.Seconds = secs
	base.Refine = &lu.MixedReport{Iterations: iters, Residual: res}
	results[0] = base
	errs[0] = nil
	return nil
}
