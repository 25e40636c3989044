package matrix

// PRNG is a deterministic 64-bit linear congruential generator in the style
// of HPL's pseudo-random matrix generator. It carries no global state and
// never touches the wall clock, so every experiment in this repository is
// reproducible bit-for-bit.
type PRNG struct {
	state uint64
}

// lcg multiplier/increment: Knuth MMIX constants.
const (
	lcgMul = 6364136223846793005
	lcgInc = 1442695040888963407
)

// NewPRNG returns a generator seeded with seed (any value is fine;
// the state is scrambled once so seed 0 is usable).
func NewPRNG(seed uint64) *PRNG {
	p := &PRNG{state: seed}
	p.next()
	return p
}

func (p *PRNG) next() uint64 {
	p.state = p.state*lcgMul + lcgInc
	return p.state
}

// Uint64 returns the next raw 64-bit value.
func (p *PRNG) Uint64() uint64 { return p.next() }

// Skip advances the generator by n steps in O(log n). An LCG's n-step
// transition is itself affine, state -> A·state + C with A = mul^n and
// C = inc·(mul^(n-1) + … + 1), so square-and-multiply over the affine
// maps lands on exactly the state n sequential next() calls would reach
// — the jump that lets a distributed rank generate its slice of a
// shared random matrix without streaming past everyone else's.
func (p *PRNG) Skip(n uint64) {
	mul, inc := jump(n)
	p.state = p.state*mul + inc
}

// jump returns the affine map (mul, inc) of n LCG steps.
func jump(n uint64) (mul, inc uint64) {
	mul = 1
	stepMul, stepInc := uint64(lcgMul), uint64(lcgInc)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			mul, inc = stepMul*mul, stepMul*inc+stepInc
		}
		stepMul, stepInc = stepMul*stepMul, stepMul*stepInc+stepInc
	}
	return mul, inc
}

// mul4, inc4 step a state four draws ahead.
var mul4, inc4 = jump(4)

// Float64 returns a uniform value in [-0.5, 0.5), the distribution HPL uses
// to generate test matrices (HPL_rand yields values in [-0.5, 0.5]).
func (p *PRNG) Float64() float64 { return unit(p.next()) }

// unit maps a raw draw to [-0.5, 0.5): 53 high bits -> [0,1), then shifted.
func unit(v uint64) float64 { return float64(v>>11)/(1<<53) - 0.5 }

// fill draws len(row) values into row, each converted with T(v) — the loop
// every generator in this package runs. It walks the stream as four
// interleaved chains, draws j … j+3 each stepping four ahead, so four
// independent multiply-adds are in flight where one serial chain would
// wait on each; the states, and so the values, are the sequential
// stream's.
func fill[T Float](p *PRNG, row []T) {
	s, j := p.state, 0
	if len(row) >= 4 {
		s0 := s*lcgMul + lcgInc
		s1 := s0*lcgMul + lcgInc
		s2 := s1*lcgMul + lcgInc
		s3 := s2*lcgMul + lcgInc
		for ; j+4 <= len(row); j += 4 {
			r := row[j : j+4 : j+4]
			r[0], r[1], r[2], r[3] = T(unit(s0)), T(unit(s1)), T(unit(s2)), T(unit(s3))
			s = s3
			s0, s1, s2, s3 = s0*mul4+inc4, s1*mul4+inc4, s2*mul4+inc4, s3*mul4+inc4
		}
	}
	for ; j < len(row); j++ {
		s = s*lcgMul + lcgInc
		row[j] = T(unit(s))
	}
	p.state = s
}

// Intn returns a uniform value in [0, n). n must be positive.
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("matrix: Intn with non-positive n")
	}
	return int(p.next() % uint64(n))
}

// FillRandom fills m with uniform values in [-0.5, 0.5).
func (m *Of[T]) FillRandom(p *PRNG) {
	for i := 0; i < m.Rows; i++ {
		fill(p, m.Row(i))
	}
}

// RandomGeneral returns a rows×cols matrix of uniform [-0.5,0.5) entries
// generated from seed.
func RandomGeneral(rows, cols int, seed uint64) *Dense {
	m := NewDense(rows, cols)
	m.FillRandom(NewPRNG(seed))
	return m
}

// RandomSPD-like diagonally dominant matrices are not what HPL factors; HPL
// uses plain uniform random matrices, which are almost surely well
// conditioned enough for partial pivoting. RandomSystem reproduces the HPL
// setup: A is n×n uniform random and b is a uniform random right-hand side.
func RandomSystem(n int, seed uint64) (a *Dense, b []float64) {
	p := NewPRNG(seed)
	a = NewDense(n, n)
	a.FillRandom(p)
	b = make([]float64, n)
	fill(p, b)
	return a, b
}

// RandomSubmatrix generates the rows×cols window of RandomSystem(n,
// seed)'s matrix anchored at (r0, c0), by jumping the stream to each
// window row — bitwise identical to slicing the full matrix, without
// materializing (or even iterating) the other n²−rows·cols entries.
func RandomSubmatrix(n int, seed uint64, r0, c0, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	FillRandomSubmatrix(m, n, seed, r0, c0)
	return m
}

// FillRandomSubmatrix is RandomSubmatrix into dst, any matrix or view: it
// fills dst with the dst.Rows×dst.Cols window anchored at (r0, c0). Each
// value is converted with T(v), so a float32 dst holds exactly what
// ToDense32 makes of the float64 window.
func FillRandomSubmatrix[T Float](dst *Of[T], n int, seed uint64, r0, c0 int) {
	for i := 0; i < dst.Rows; i++ {
		p := NewPRNG(seed)
		p.Skip(uint64(r0+i)*uint64(n) + uint64(c0))
		fill(p, dst.Row(i))
	}
}

// FillRandomBlockCyclic fills one process's share of RandomSystem(n,
// seed)'s matrix under a 2D block-cyclic layout of nb×nb blocks: process
// (p, q) of a P×Q grid owns every block (i, j) with i ≡ p (mod P) and
// j ≡ q (mod Q), and block(i, j) returns where that block goes, a matrix
// or view of its rows×cols (ragged at the last block row and column).
// Each block gets FillRandomSubmatrix's bits. The stream is jumped once
// per owned matrix row, to the row's first owned block; from the end of
// one block to the start of the next it skips the (Q−1)·nb draws the
// other process columns own, a jump computed once.
func FillRandomBlockCyclic[T Float](n, nb int, seed uint64, p, q, P, Q int, block func(i, j int) *Of[T]) {
	nBlocks := (n + nb - 1) / nb
	gapMul, gapInc := jump(uint64((Q - 1) * nb))
	var row []*Of[T]
	for i := p; i < nBlocks; i += P {
		row = row[:0]
		for j := q; j < nBlocks; j += Q {
			row = append(row, block(i, j))
		}
		if len(row) == 0 {
			return // q owns no block column
		}
		for r := 0; r < row[0].Rows; r++ {
			g := NewPRNG(seed)
			g.Skip(uint64(i*nb+r)*uint64(n) + uint64(q*nb))
			for b, dst := range row {
				if b > 0 {
					g.state = g.state*gapMul + gapInc
				}
				fill(g, dst.Row(r))
			}
		}
	}
}

// RandomVector returns a length-n vector of uniform [-0.5,0.5) entries.
func RandomVector(n int, seed uint64) []float64 {
	v := make([]float64, n)
	fill(NewPRNG(seed), v)
	return v
}
