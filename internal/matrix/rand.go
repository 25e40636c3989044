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
	accMul, accInc := uint64(1), uint64(0)
	stepMul, stepInc := uint64(lcgMul), uint64(lcgInc)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			accMul, accInc = stepMul*accMul, stepMul*accInc+stepInc
		}
		stepMul, stepInc = stepMul*stepMul, stepMul*stepInc+stepInc
	}
	p.state = p.state*accMul + accInc
}

// Float64 returns a uniform value in [-0.5, 0.5), the distribution HPL uses
// to generate test matrices (HPL_rand yields values in [-0.5, 0.5]).
func (p *PRNG) Float64() float64 {
	// 53 high bits -> [0,1), then shift to [-0.5, 0.5).
	return float64(p.next()>>11)/(1<<53) - 0.5
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
		row := m.Row(i)
		for j := range row {
			row[j] = T(p.Float64())
		}
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
	for i := range b {
		b[i] = p.Float64()
	}
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
		row := dst.Row(i)
		for j := range row {
			row[j] = T(p.Float64())
		}
	}
}

// RandomVector returns a length-n vector of uniform [-0.5,0.5) entries.
func RandomVector(n int, seed uint64) []float64 {
	p := NewPRNG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = p.Float64()
	}
	return v
}
