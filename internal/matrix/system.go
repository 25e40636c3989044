package matrix

import (
	"math"
	"runtime"
	"sync"
)

// A System is the FP64 linear system A·x = b a solve is checked (and
// refined) against, with A read one row at a time: from a matrix held in
// memory (DenseSystem), or regenerated from RandomSystem's seed on every
// pass (SeededSystem) — so a root that checks a distributed solve never
// has to hold n×n. Both forms compute the same bits: every quantity below
// is a row-by-row sum in column order, or a maximum over rows.
type System struct {
	// B is the right-hand side; len(B) is the order n.
	B []float64
	// rows calls visit(i, A's row i) for i = lo … hi−1, in order. The row
	// may be a reused buffer, valid only during the call.
	rows func(lo, hi int, visit func(i int, row []float64))
}

// DenseSystem reads A from a (n×n, n = len(b)).
func DenseSystem(a *Dense, b []float64) System {
	return System{B: b, rows: func(lo, hi int, visit func(int, []float64)) {
		for i := lo; i < hi; i++ {
			visit(i, a.Row(i))
		}
	}}
}

// SeededSystem is RandomSystem(n, seed) without the matrix: b is generated
// now (the n draws after A's n² — a jump of the stream), and a pass over
// rows lo … hi−1 jumps to row lo and walks the stream into one reused row,
// so the system costs O(n) memory and one generation per pass.
func SeededSystem(n int, seed uint64) System {
	p := NewPRNG(seed)
	p.Skip(uint64(n) * uint64(n))
	b := make([]float64, n)
	fill(p, b)
	return System{B: b, rows: func(lo, hi int, visit func(int, []float64)) {
		p := NewPRNG(seed)
		p.Skip(uint64(lo) * uint64(n))
		row := make([]float64, n)
		for i := lo; i < hi; i++ {
			fill(p, row)
			visit(i, row)
		}
	}}
}

// Sweep makes one pass over A and returns the residual vector r = b − A·x
// and x's scaled HPL residual (see Residual). Row i's product is summed in
// column order and r_i formed as b_i + (−1)·dot_i, a BLAS gemv's order
// for alpha = −1, beta = 1, so |r_i| is bitwise |(A·x)_i − b_i|. The
// rows are split into one contiguous range per GOMAXPROCS, swept
// concurrently: rows are independent and ‖A‖∞ is a maximum, so the split
// changes no bit.
func (s System) Sweep(x []float64) (r []float64, scaled float64) {
	n := len(s.B)
	r = make([]float64, n)
	parts := runtime.GOMAXPROCS(0)
	norms := make([]float64, parts)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			norm := 0.0
			s.rows(k*n/parts, (k+1)*n/parts, func(i int, row []float64) {
				x := x[:len(row)]
				dot, abs := 0.0, 0.0
				for j, v := range row {
					dot += v * x[j]
					abs += math.Abs(v)
				}
				r[i] = s.B[i] - dot
				if abs > norm {
					norm = abs
				}
			})
			norms[k] = norm
		}()
	}
	wg.Wait()
	normA := 0.0
	for _, v := range norms {
		if v > normA {
			normA = v
		}
	}
	if n == 0 {
		return r, 0
	}
	num := VecNormInf(r)
	den := machEps * (normA*VecNormInf(x) + VecNormInf(s.B)) * float64(n)
	if den == 0 {
		if num == 0 {
			return r, 0
		}
		return r, math.Inf(1)
	}
	return r, num / den
}

// Residual is x's scaled HPL residual against the system.
func (s System) Residual(x []float64) float64 {
	_, res := s.Sweep(x)
	return res
}
