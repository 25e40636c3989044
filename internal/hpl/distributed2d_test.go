package hpl

import (
	"context"
	"slices"
	"testing"
	"testing/quick"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
)

func TestSolveDistributed2DResidual(t *testing.T) {
	for _, tc := range []struct{ n, nb, p, q int }{
		{48, 8, 1, 1},
		{48, 8, 2, 2},
		{64, 8, 2, 3},
		{64, 8, 3, 2},
		{60, 16, 1, 4},
		{60, 16, 4, 1},
		{75, 10, 2, 2}, // ragged final blocks
	} {
		r, err := Solve(context.Background(), Grid{N: tc.n, NB: tc.nb, P: tc.p, Q: tc.q, Seed: 99}, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if r.Residual > matrix.ResidualThreshold {
			t.Errorf("%+v: residual %g FAILED", tc, r.Residual)
		}
		if r.Ranks != tc.p*tc.q {
			t.Errorf("%+v: ranks = %d", tc, r.Ranks)
		}
	}
}

func TestSolveDistributed2DMatchesSequential(t *testing.T) {
	n, nb := 72, 12
	a, b := matrix.RandomSystem(n, 17)
	lu := a.Clone()
	piv := make([]int, n)
	if err := blas.Dgetrf(lu, piv, nb); err != nil {
		t.Fatal(err)
	}
	want := blas.LUSolve(lu, piv, b)

	for _, grid := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {2, 3}} {
		r, err := Solve(context.Background(), Grid{N: n, NB: nb, P: grid[0], Q: grid[1], Seed: 17}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if r.X[i] != want[i] {
				t.Fatalf("grid %v: x[%d] = %v, want %v (bitwise)", grid, i, r.X[i], want[i])
			}
		}
	}
}

func TestSolveDistributed2DGridInvariance(t *testing.T) {
	// Same answer regardless of grid shape.
	base, err := Solve(context.Background(), Grid{N: 60, NB: 10, P: 1, Q: 1, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range [][2]int{{2, 1}, {1, 2}, {2, 2}, {3, 3}} {
		r, err := Solve(context.Background(), Grid{N: 60, NB: 10, P: grid[0], Q: grid[1], Seed: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.X {
			if r.X[i] != base.X[i] {
				t.Fatalf("grid %v: solution differs at %d", grid, i)
			}
		}
	}
}

func TestSolveDistributed2DErrors(t *testing.T) {
	if _, err := Solve(context.Background(), Grid{N: 0, NB: 4, P: 2, Q: 2, Seed: 1}, nil); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Solve(context.Background(), Grid{N: 10, NB: 4, P: 0, Q: 2, Seed: 1}, nil); err == nil {
		t.Error("P=0 should error")
	}
	// nb=0 clamps.
	if _, err := Solve(context.Background(), Grid{N: 16, NB: 0, P: 2, Q: 2, Seed: 1}, nil); err != nil {
		t.Errorf("nb=0 should clamp: %v", err)
	}
}

func TestSolveDistributed2DProperty(t *testing.T) {
	f := func(seed uint64, nR, pR, qR uint8) bool {
		n := 20 + int(nR)%40
		p := 1 + int(pR)%3
		q := 1 + int(qR)%3
		r, err := Solve(context.Background(), Grid{N: n, NB: 8, P: p, Q: q, Seed: seed}, nil)
		if err != nil {
			return true
		}
		return r.Residual < matrix.ResidualThreshold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestSolveDistributed2DHybrid(t *testing.T) {
	// The offload-engine-backed updates make the plain driver's
	// micro-kernel calls: the solution is bitwise the plain one.
	n, nb := 96, 16
	plain, err := Solve(context.Background(), Grid{N: n, NB: nb, P: 2, Q: 2, Seed: 31}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Solve(context.Background(), Grid{N: n, NB: nb, P: 2, Q: 2, Seed: 31, Offload: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hy.Residual > matrix.ResidualThreshold {
		t.Errorf("hybrid residual %g FAILED", hy.Residual)
	}
	if !slices.Equal(hy.X, plain.X) {
		t.Error("hybrid X differs from the plain grid's")
	}
}

func TestSolveDistributed2DHybridErrors(t *testing.T) {
	if _, err := Solve(context.Background(), Grid{N: 0, NB: 4, P: 1, Q: 1, Seed: 1, Offload: true}, nil); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Solve(context.Background(), Grid{N: 32, NB: 0, P: 2, Q: 1, Seed: 1, Offload: true}, nil); err != nil {
		t.Errorf("nb clamp: %v", err)
	}
}
