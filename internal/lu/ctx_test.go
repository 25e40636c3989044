package lu

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"phihpl/internal/matrix"
	"phihpl/internal/pool"
	"phihpl/internal/testutil"
)

// countCtx cancels itself deterministically after its Err method has been
// consulted `after` times — scheduler-independent mid-run cancellation.
type countCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

type ctxDriver[T matrix.Float] struct {
	name   string
	driver func(context.Context, *matrix.Of[T], []int, Options) error
}

func ctxDriversOf[T matrix.Float]() []ctxDriver[T] {
	return []ctxDriver[T]{
		{"SequentialCtx", SequentialCtx[T]},
		{"StaticLookaheadCtx", StaticLookaheadCtx[T]},
		{"DynamicCtx", DynamicCtx[T]},
	}
}

var ctxDrivers = ctxDriversOf[float64]()

// background runs a ctx driver under context.Background.
func background[T matrix.Float](d ctxDriver[T]) func(*matrix.Of[T], []int, Options) error {
	return func(a *matrix.Of[T], piv []int, o Options) error { return d.driver(context.Background(), a, piv, o) }
}

// A completed ctx run must be bitwise identical to the non-ctx reference,
// in either precision.
func TestCtxDriversBitwiseIdentical(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for i, d := range ctxDrivers {
		t.Run(d.name, func(t *testing.T) {
			eachShape(func(a64 *matrix.Dense, a32 *matrix.Dense32, nb int) {
				matchGetrf(t, d.name, background(d), a64, nb)
				matchGetrf(t, d.name, background(ctxDriversOf[float32]()[i]), a32, nb)
			})
		})
	}
}

func TestCtxDriversAlreadyCancelled(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range ctxDrivers {
		t.Run(d.name, func(t *testing.T) {
			a := matrix.RandomGeneral(64, 64, 5)
			before := a.Clone()
			err := d.driver(ctx, a, make([]int, 64), Options{NB: 16, Workers: 2})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !matrix.Equal(a, before) {
				t.Error("cancelled-before-start driver modified the matrix")
			}
		})
	}
}

func TestCtxDriversCancelMidRun(t *testing.T) {
	defer testutil.NoLeaks(t)()
	for _, d := range ctxDrivers {
		t.Run(d.name, func(t *testing.T) {
			a := matrix.RandomGeneral(128, 128, 7)
			ctx := &countCtx{Context: context.Background(), after: 3}
			err := d.driver(ctx, a, make([]int, 128), Options{NB: 8, Workers: 2})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// A panic in a task kernel must come back as a typed *pool.PanicError from
// every driver — never crash the process, never leak a worker.
func TestCtxDriversPanicContained(t *testing.T) {
	defer testutil.NoLeaks(t)()
	testHookPanelFact = func(p int) {
		if p == 1 {
			panic("panel kernel blew up")
		}
	}
	defer func() { testHookPanelFact = nil }()
	for _, d := range ctxDrivers {
		t.Run(d.name, func(t *testing.T) {
			a := matrix.RandomGeneral(96, 96, 9)
			err := d.driver(context.Background(), a, make([]int, 96), Options{NB: 16, Workers: 3})
			var pe *pool.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *pool.PanicError", err)
			}
			if pe.Value != "panel kernel blew up" {
				t.Errorf("recovered value = %v", pe.Value)
			}
		})
	}
}

// The non-ctx entry points contain the same panic (no process crash).
func TestNonCtxDriversPanicContained(t *testing.T) {
	defer testutil.NoLeaks(t)()
	testHookPanelFact = func(p int) { panic("boom") }
	defer func() { testHookPanelFact = nil }()
	for _, d := range []struct {
		name   string
		driver func(*matrix.Dense, []int, Options) error
	}{
		{"StaticLookahead", StaticLookahead[float64]},
		{"Dynamic", Dynamic[float64]},
	} {
		t.Run(d.name, func(t *testing.T) {
			a := matrix.RandomGeneral(64, 64, 11)
			err := d.driver(a, make([]int, 64), Options{NB: 16, Workers: 2})
			var pe *pool.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *pool.PanicError", err)
			}
		})
	}
}

func TestSolveCtx(t *testing.T) {
	defer testutil.NoLeaks(t)()
	n := 80
	a, b := matrix.RandomSystem(n, 13)
	x, res, err := SolveCtx(context.Background(), a, b, Options{NB: 16, Workers: 2}, DynamicCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != n || res > 16 {
		t.Errorf("bad solve: res=%g", res)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SolveCtx(ctx, a, b, Options{NB: 16}, SequentialCtx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SolveCtx: err = %v", err)
	}
}

// SolveInPlace on A generated for the solve, checked against the seed,
// gives Solve's X and residual bit for bit under every driver, and a
// timed phase of more than nothing. A cancelled context produces no
// solution.
func TestSolveInPlaceMatchesSolve(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const n, seed = 90, 17
	opts := Options{NB: 16, Workers: 3}
	a, b := matrix.RandomSystem(n, seed)
	want, wantRes, err := Solve(a, b, opts, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ctxDrivers {
		t.Run(d.name, func(t *testing.T) {
			x, res, secs, rep, err := SolveInPlace(context.Background(), matrix.RandomGeneral(n, n, seed), matrix.SeededSystem(n, seed), opts, d.driver)
			if err != nil {
				t.Fatal(err)
			}
			if rep != nil {
				t.Errorf("FP64 solve returned a refinement report %+v", rep)
			}
			if math.Float64bits(res) != math.Float64bits(wantRes) || secs <= 0 {
				t.Errorf("residual %g, seconds %g; want residual %g and seconds > 0", res, secs, wantRes)
			}
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("x[%d] = %g, want %g bit for bit", i, x[i], want[i])
				}
			}
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if x, _, _, _, err := SolveInPlace(ctx, matrix.RandomGeneral(n, n, seed), matrix.SeededSystem(n, seed), opts, DynamicCtx); !errors.Is(err, context.Canceled) || x != nil {
		t.Errorf("cancelled SolveInPlace: x = %v, err = %v", x != nil, err)
	}
}
