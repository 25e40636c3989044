// Package offload implements the offload-DGEMM engine of Section V-B: the
// trailing-matrix update is divided into tiles that a coprocessor consumes
// from the top-left corner in column-major order while the host consumes
// from the bottom-right, both stealing one tile at a time until the grid is
// exhausted (Figure 10a). Input tiles are packed on the host into the
// Knights Corner-friendly layout, shipped over PCIe, multiplied on the
// card, and the result tiles are accumulated back into the original matrix
// (Figure 10b).
//
// The package has two layers: a functional layer (Compute, ComputePacked)
// that really performs C += A·B with goroutine "cards" and work stealing,
// and a virtual-time layer (Simulate) that prices the same schedule on the
// machine model and regenerates Figure 11. The functional layer is generic
// over the element type: operands are packed once per call, an engine tile
// is a block of whole micro-tiles, and both lanes run the packed GEMM's
// micro-kernel calls, so the result is bitwise pack.Gemm's whichever lane
// ran each tile.
package offload

// TilePlan is a rectangular tiling of an M×N matrix with partial edge
// tiles merged into their neighbours (Section V-B: "we merge the last two
// tiles at the end of each row or column and process them together"), so
// no tile is smaller than the nominal size.
type TilePlan struct {
	M, N   int
	Mt, Nt int
	// RowStart[i], RowSize[i] for each tile row; likewise columns.
	RowStart, RowSize []int
	ColStart, ColSize []int
}

// PlanTiles builds the tiling. Nominal sizes clamp to the matrix.
func PlanTiles(m, n, mt, nt int) TilePlan {
	if mt < 1 || mt > m {
		mt = m
	}
	if nt < 1 || nt > n {
		nt = n
	}
	p := TilePlan{M: m, N: n, Mt: mt, Nt: nt}
	p.RowStart, p.RowSize = cuts(m, mt)
	p.ColStart, p.ColSize = cuts(n, nt)
	return p
}

// cuts splits extent into blocks of nominal size, merging the remainder
// into the final block.
func cuts(extent, size int) (starts, sizes []int) {
	if extent <= 0 {
		return nil, nil
	}
	nFull := extent / size
	if nFull == 0 {
		return []int{0}, []int{extent}
	}
	rem := extent - nFull*size
	for i := 0; i < nFull; i++ {
		starts = append(starts, i*size)
		sizes = append(sizes, size)
	}
	sizes[nFull-1] += rem // merge the partial tile into the last full one
	return starts, sizes
}

// Rows and Cols return the tile-grid dimensions.
func (p *TilePlan) Rows() int { return len(p.RowStart) }

// Cols returns the number of tile columns.
func (p *TilePlan) Cols() int { return len(p.ColStart) }

// NumTiles returns the total tile count.
func (p *TilePlan) NumTiles() int { return p.Rows() * p.Cols() }

// Tile returns the bounds of tile idx in column-major order — the order in
// which the card steals from the top-left (index 0) while the host steals
// from the bottom-right (index NumTiles-1).
func (p *TilePlan) Tile(idx int) (r0, c0, rows, cols int) {
	nr := p.Rows()
	col := idx / nr
	row := idx % nr
	return p.RowStart[row], p.ColStart[col], p.RowSize[row], p.ColSize[col]
}

// planMicro is the engine's tiling of an m×n C whose packed operands have
// tileM-row and tileN-column micro-tiles: PlanTiles over the micro-tile
// grid, the nominal mt×nt rounded up to whole micro-tiles. Its bounds are
// in micro-tiles.
func planMicro(m, n, mt, nt, tileM, tileN int) TilePlan {
	ceil := func(x, d int) int { return (x + d - 1) / d }
	return PlanTiles(ceil(m, tileM), ceil(n, tileN), ceil(mt, tileM), ceil(nt, tileN))
}
