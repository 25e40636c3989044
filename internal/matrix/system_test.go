package matrix

import (
	"math"
	"runtime"
	"testing"
)

// residualOracle is the scaled HPL residual and b − A·x computed the long
// way: A·x as MulVec, ‖A‖∞ as NormInf, each residual entry as
// b_i + (−1)·dot_i, the way a BLAS gemv with alpha = −1, beta = 1 forms
// it.
func residualOracle(a *Dense, x, b []float64) ([]float64, float64) {
	n := a.Rows
	ax := a.MulVec(x)
	r := make([]float64, n)
	d := make([]float64, n)
	for i := range ax {
		r[i] = b[i] + -1*ax[i]
		d[i] = ax[i] - b[i]
	}
	if n == 0 {
		return r, 0
	}
	num := VecNormInf(d)
	den := machEps * (a.NormInf()*VecNormInf(x) + VecNormInf(b)) * float64(n)
	if den == 0 {
		if num == 0 {
			return r, 0
		}
		return r, math.Inf(1)
	}
	return r, num / den
}

// A System computes bitwise the same residual vector and scaled residual
// whether A is held (DenseSystem) or regenerated from the seed
// (SeededSystem), and both match the long-way oracle — an exact
// solution, a wrong one and a non-finite one — however many row ranges
// the sweep splits into, more than rows included.
func TestSeededSystemMatchesDense(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		checkSystems(t)
	}
}

func checkSystems(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33} {
		for _, seed := range []uint64{1, 42} {
			a, b := RandomSystem(n, seed)
			seeded := SeededSystem(n, seed)
			if !equalBits(seeded.B, b) {
				t.Fatalf("n=%d seed=%d: SeededSystem's b differs from RandomSystem's", n, seed)
			}
			xs := [][]float64{RandomVector(n, seed+1), make([]float64, n)}
			if n > 0 {
				inf := RandomVector(n, seed+2)
				inf[n/2] = math.Inf(1)
				xs = append(xs, inf)
			}
			for k, x := range xs {
				wantR, want := residualOracle(a, x, b)
				for name, sys := range map[string]System{"dense": DenseSystem(a, b), "seeded": seeded} {
					r, got := sys.Sweep(x)
					if !equalBits(r, wantR) || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d seed=%d x#%d %s: residual %v, want %v", n, seed, k, name, got, want)
					}
					if res := sys.Residual(x); math.Float64bits(res) != math.Float64bits(want) {
						t.Fatalf("n=%d seed=%d x#%d %s: Residual %v, want %v", n, seed, k, name, res, want)
					}
				}
			}
		}
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
