package matrix

import "testing"

// Skip(n) must land on exactly the state n sequential draws reach — the
// property the distributed scatter relies on to generate a rank's blocks
// without streaming the whole matrix.
func TestPRNGSkipMatchesSequential(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 63, 64, 1000, 123457} {
		seq := NewPRNG(42)
		for i := uint64(0); i < n; i++ {
			seq.Float64()
		}
		jump := NewPRNG(42)
		jump.Skip(n)
		for i := 0; i < 5; i++ {
			a, b := seq.Float64(), jump.Float64()
			if a != b {
				t.Fatalf("skip %d: draw %d = %v, want %v", n, i, b, a)
			}
		}
	}
}

// RandomSubmatrix must be bitwise the corresponding window of the full
// RandomSystem matrix, including ragged edge windows; FillRandomSubmatrix
// must write the same window into a view of a larger matrix (touching
// nothing around it) and, into a float32 view, exactly what ToDense32
// makes of it.
func TestRandomSubmatrixBitwise(t *testing.T) {
	const n, seed = 37, 99
	full, _ := RandomSystem(n, seed)
	for _, w := range []struct{ r0, c0, rows, cols int }{
		{0, 0, n, n},
		{0, 0, 8, 8},
		{16, 24, 8, 8},
		{32, 32, 5, 5}, // ragged corner
		{10, 0, 1, n},
		{0, 36, n, 1},
	} {
		want := full.View(w.r0, w.c0, w.rows, w.cols)
		if sub := RandomSubmatrix(n, seed, w.r0, w.c0, w.rows, w.cols); !Equal(sub, want) {
			t.Fatalf("window %+v: RandomSubmatrix differs from the full matrix", w)
		}

		host := NewDense(w.rows+2, w.cols+3)
		FillRandomSubmatrix(host.View(1, 2, w.rows, w.cols), n, seed, w.r0, w.c0)
		for i := 0; i < host.Rows; i++ {
			for j := 0; j < host.Cols; j++ {
				in := i >= 1 && i <= w.rows && j >= 2 && j <= w.cols+1
				if in && host.At(i, j) != want.At(i-1, j-2) || !in && host.At(i, j) != 0 {
					t.Fatalf("window %+v: filled view wrong at host (%d,%d) = %v", w, i, j, host.At(i, j))
				}
			}
		}

		host32 := NewDense32(w.rows+1, w.cols+1)
		v32 := host32.View(1, 1, w.rows, w.cols)
		FillRandomSubmatrix(v32, n, seed, w.r0, w.c0)
		if !Equal(v32.Clone(), want.ToDense32()) {
			t.Fatalf("window %+v: float32 fill differs from ToDense32 of the window", w)
		}
	}
}

// FillRandomBlockCyclic must give every block a process owns exactly
// FillRandomSubmatrix's bits, and touch no block it does not own: ragged
// n, process grids wider or taller than the block count, both element
// types.
func TestFillRandomBlockCyclicMatchesSubmatrix(t *testing.T) {
	for _, c := range []struct{ n, nb, P, Q int }{
		{37, 8, 2, 2}, // ragged last block row and column
		{37, 8, 1, 3}, // three process columns, ragged
		{40, 8, 3, 1}, // one process column: no gap to jump
		{20, 8, 2, 5}, // Q > nBlocks: two process columns own nothing
		{20, 8, 4, 1}, // P > nBlocks
		{9, 16, 2, 2}, // one ragged block
		{64, 4, 3, 5}, // many blocks per row
	} {
		checkBlockCyclic[float64](t, c.n, c.nb, c.P, c.Q)
		checkBlockCyclic[float32](t, c.n, c.nb, c.P, c.Q)
	}
}

func checkBlockCyclic[T Float](t *testing.T, n, nb, P, Q int) {
	t.Helper()
	const seed = 1234
	nBlocks := (n + nb - 1) / nb
	view := func(m *Of[T], i, j int) *Of[T] {
		return m.View(i*nb, j*nb, min(nb, n-i*nb), min(nb, n-j*nb))
	}
	for p := 0; p < P; p++ {
		for q := 0; q < Q; q++ {
			got := New[T](n, n)
			for i := range got.Data {
				got.Data[i] = 7 // not a value the generator draws
			}
			FillRandomBlockCyclic(n, nb, seed, p, q, P, Q, func(i, j int) *Of[T] { return view(got, i, j) })
			for i := 0; i < nBlocks; i++ {
				for j := 0; j < nBlocks; j++ {
					blk := view(got, i, j)
					want := New[T](blk.Rows, blk.Cols)
					if i%P == p && j%Q == q {
						FillRandomSubmatrix(want, n, seed, i*nb, j*nb)
					} else {
						for k := range want.Data {
							want.Data[k] = 7
						}
					}
					if !Equal(blk.Clone(), want) {
						t.Fatalf("n=%d nb=%d %dx%d process (%d,%d): block (%d,%d) differs from FillRandomSubmatrix", n, nb, P, Q, p, q, i, j)
					}
				}
			}
		}
	}
}

// fill, the loop behind every generator, must draw exactly the sequential
// stream at every length.
func TestFillMatchesSequentialDraws(t *testing.T) {
	for n := 0; n <= 9; n++ {
		seq, p := NewPRNG(7), NewPRNG(7)
		row := make([]float32, n)
		fill(p, row)
		for j, v := range row {
			if want := float32(seq.Float64()); v != want {
				t.Fatalf("len %d: draw %d = %v, want %v", n, j, v, want)
			}
		}
		if p.Uint64() != seq.Uint64() {
			t.Fatalf("len %d: generator state diverged after fill", n)
		}
	}
}
