package hpl

import (
	"context"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/metrics"
)

// layoutGrid is rank (p, q) of a P×Q grid over an n×n matrix in blocks
// of nb, with its local matrix allocated and nothing run.
func layoutGrid(n, nb, P, Q, p, q int) *grid2d[float64] {
	g := &grid2d[float64]{P: P, Q: Q, p: p, q: q, n: n, nb: nb, nBlocks: (n + nb - 1) / nb}
	g.layout()
	g.a = matrix.NewDense(localRows(g.mloc, g.nloc, nb), nb)
	return g
}

// TestLocalLayoutIndexMaps checks the local-storage index maps
// exhaustively over n ≤ 70, NB ≤ 9 and P, Q ≤ 4: mloc and nloc are the
// sums of the owned blockDims; every global element (r, c), written
// through block(i, j) on the rank owner names, lands in a distinct local
// slot, and together they fill every rank's local matrix exactly once
// (all but the padding of a ragged last column's panel); rowsFrom is
// where the owned block rows from i on begin; seg finds each element
// again by its local row; factorRun, over the ranks' local matrices, reads
// every element at its global position, each run ending at its block's
// last column.
func TestLocalLayoutIndexMaps(t *testing.T) {
	for n := 1; n <= 70; n++ {
		for nb := 1; nb <= 9 && nb <= n; nb++ {
			for P := 1; P <= 4; P++ {
				for Q := 1; Q <= 4; Q++ {
					checkLayout(t, n, nb, P, Q)
				}
			}
		}
	}
}

func checkLayout(t *testing.T, n, nb, P, Q int) {
	t.Helper()
	grids := make([]*grid2d[float64], P*Q)
	for rk := range grids {
		g := layoutGrid(n, nb, P, Q, rk/Q, rk%Q)
		rows, cols := 0, 0
		for i := g.p; i < g.nBlocks; i += P {
			r, _ := g.blockDims(i, 0)
			if g.rowsFrom(i) != rows {
				t.Fatalf("n=%d nb=%d %dx%d rank %d: rowsFrom(%d) = %d, want %d", n, nb, P, Q, rk, i, g.rowsFrom(i), rows)
			}
			rows += r
		}
		for j := g.q; j < g.nBlocks; j += Q {
			_, c := g.blockDims(0, j)
			cols += c
		}
		if g.mloc != rows || g.nloc != cols || g.rowsFrom(g.nBlocks) != g.mloc {
			t.Fatalf("n=%d nb=%d %dx%d rank %d: local %dx%d, owned blocks %dx%d", n, nb, P, Q, rk, g.mloc, g.nloc, rows, cols)
		}
		grids[rk] = g
	}

	// Write every global element through block(i, j) on its owner, as its
	// own 1-based linear index; a slot written twice fails.
	g0 := grids[0]
	for i := 0; i < g0.nBlocks; i++ {
		for j := 0; j < g0.nBlocks; j++ {
			op, oq := g0.owner(i, j)
			blk := grids[g0.rank(op, oq)].block(i, j)
			for y := 0; y < blk.Rows; y++ {
				for x := 0; x < blk.Cols; x++ {
					if blk.At(y, x) != 0 {
						t.Fatalf("n=%d nb=%d %dx%d: block (%d,%d) overlaps an earlier block", n, nb, P, Q, i, j)
					}
					blk.Set(y, x, float64((i*nb+y)*n+j*nb+x+1))
				}
			}
		}
	}
	locals := make([]*matrix.Dense, len(grids))
	for rk, g := range grids {
		// Every slot of every owned column's panel was written; only a
		// ragged last column's padding stays zero.
		for x, v := range g.a.Data {
			r, c := x/nb, x%nb
			_, w := g.blockDims(0, r/max(g.mloc, 1)*Q+g.q)
			if (v == 0) != (c >= w) {
				t.Fatalf("n=%d nb=%d %dx%d rank %d: local slot (%d,%d) = %v", n, nb, P, Q, rk, r, c, v)
			}
		}
		locals[rk] = g.a
	}
	run := g0.factorRun(locals)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			_, w := g0.blockDims(0, c/nb)
			if got := run(r, c); len(got) != c/nb*nb+w-c || got[0] != float64(r*n+c+1) {
				t.Fatalf("n=%d nb=%d %dx%d: factorRun(%d,%d) = %v", n, nb, P, Q, r, c, got)
			}
			if g := grids[g0.rank(g0.rowProc(r), (c/nb)%Q)]; g.seg(g.localRow(r), c/nb, c%nb+1)[c%nb] != float64(r*n+c+1) {
				t.Fatalf("n=%d nb=%d %dx%d: localRow/seg miss (%d,%d)", n, nb, P, Q, r, c)
			}
		}
	}
}

// TestPackedCallsOnePerOwnedColumn pins the trailing update's GEMM count:
// per stage, a rank that owns trailing block rows makes one packed call
// per owned trailing block column, whatever the schedule — not one per
// owned trailing block.
func TestPackedCallsOnePerOwnedColumn(t *testing.T) {
	const n, nb, P, Q = 384, 32, 2, 2
	g := layoutGrid(n, nb, P, Q, 0, 0)
	want := 0
	for k := 0; k < g.nBlocks; k++ {
		for p := 0; p < P; p++ {
			for q := 0; q < Q; q++ {
				rowsOwned, cols := false, 0
				for i := k + 1; i < g.nBlocks; i++ {
					if op, _ := g.owner(i, 0); op == p {
						rowsOwned = true
					}
				}
				for j := k + 1; j < g.nBlocks; j++ {
					if _, oq := g.owner(0, j); oq == q {
						cols++
					}
				}
				if rowsOwned {
					want += cols
				}
			}
		}
	}
	for _, mode := range allModes {
		reg := metrics.NewRegistry()
		blas.SetObservability(nil, reg)
		_, err := Solve(context.Background(), Grid{N: n, NB: nb, P: P, Q: Q, Seed: 3, Lookahead: mode}, nil)
		blas.SetObservability(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("blas.packed_calls").Value(); got != int64(want) {
			t.Errorf("%s: %d packed GEMM calls, want %d (one per stage, rank and owned trailing column)", mode, got, want)
		}
	}
}
