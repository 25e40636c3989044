package lu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"phihpl/internal/blas"
	"phihpl/internal/matrix"
	"phihpl/internal/pool"
	"phihpl/internal/testutil"
)

// Every stage packs −L21 once and every update of the stage multiplies by
// that copy. blas.Dgetrf (Sequential) never does — it re-packs per call
// through RankKUpdate — so agreeing with it bit for bit, on thin panels,
// ragged ones and panels deeper than one K-block, is the proof that
// sharing the packed panel changed no rounding anywhere.
func TestSharedPrepackMatchesSequentialBitwise(t *testing.T) {
	defer testutil.NoLeaks(t)()
	shapes := []struct {
		name  string
		n, nb int
	}{
		{"n not a multiple of NB", 100, 32},
		{"NB > n (one panel, no update)", 48, 64},
		{"ragged last panel 6 wide", 70, 32},
		{"every panel 8 wide", 60, 8},
		{"NB > packKC (two K-blocks per stage)", 500, 400},
	}
	for _, s := range shapes {
		ref := matrix.RandomGeneral(s.n, s.n, uint64(s.n*s.nb))
		want := ref.Clone()
		wantPiv := make([]int, s.n)
		if err := Sequential(want, wantPiv, Options{NB: s.nb}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, d := range ctxDrivers {
			for workers := 1; workers <= 4; workers++ {
				got := ref.Clone()
				piv := make([]int, s.n)
				if err := d.driver(context.Background(), got, piv, Options{NB: s.nb, Workers: workers}); err != nil {
					t.Fatalf("%s %s: %v", s.name, d.name, err)
				}
				if !matrix.Equal(got, want) {
					t.Errorf("%s: %s w=%d factors differ from Sequential (maxdiff %g)",
						s.name, d.name, workers, matrix.MaxDiff(got, want))
				}
				for i := range piv {
					if piv[i] != wantPiv[i] {
						t.Errorf("%s: %s w=%d pivot[%d] = %d, want %d", s.name, d.name, workers, i, piv[i], wantPiv[i])
						break
					}
				}
			}
		}
	}
}

// l21Ledger records, through testHookL21, how many packed L21 slabs each
// stage holds. Workers call the hook concurrently.
type l21Ledger struct {
	mu       sync.Mutex
	held     map[int]int
	packs    int
	problems []string
}

func (l *l21Ledger) hook(stage, delta int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held == nil {
		l.held = map[int]int{}
	}
	l.held[stage] += delta
	if delta > 0 {
		l.packs++
	}
	if h := l.held[stage]; h < 0 || h > 1 {
		l.problems = append(l.problems, fmt.Sprintf("stage %d holds %d slabs", stage, h))
	}
}

// check requires every packed slab to have been released exactly once.
func (l *l21Ledger) check(t *testing.T, tag string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.problems {
		t.Errorf("%s: %s", tag, p)
	}
	for stage, h := range l.held {
		if h != 0 {
			t.Errorf("%s: stage %d finished holding %d slabs", tag, stage, h)
		}
	}
}

// Each stage's slab goes back to the pool exactly once whichever way the
// factorization ends: completed, completed around a singular panel, cut
// short by a task panic, or cut short by cancellation.
func TestPackedL21ReleasedExactlyOnce(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const n, nb = 160, 16 // ten panels, nine of them with an L21 to pack
	singular := matrix.RandomGeneral(n, n, 5)
	for i := 0; i < n; i++ {
		singular.Set(i, 40, 0)
	}
	endings := []struct {
		name    string
		a       *matrix.Dense
		ctx     func() context.Context
		panicAt int // panel whose factorization panics; -1 for none
		check   func(err error) bool
		packs   int // slabs a full run packs; -1 when the run is cut short
	}{
		{"success", matrix.RandomGeneral(n, n, 4), context.Background, -1,
			func(err error) bool { return err == nil }, n/nb - 1},
		{"singular panel", singular, context.Background, -1,
			func(err error) bool { return errors.Is(err, blas.ErrSingular) }, n/nb - 1},
		{"task panic", matrix.RandomGeneral(n, n, 6), context.Background, 3,
			func(err error) bool { var pe *pool.PanicError; return errors.As(err, &pe) }, -1},
		{"ctx cancel", matrix.RandomGeneral(n, n, 7),
			func() context.Context { return &countCtx{Context: context.Background(), after: 4} }, -1,
			func(err error) bool { return errors.Is(err, context.Canceled) }, -1},
	}
	defer func() { testHookL21, testHookPanelFact = nil, nil }()
	for _, e := range endings {
		for _, d := range ctxDrivers {
			tag := e.name + "/" + d.name
			var ledger l21Ledger
			testHookL21 = ledger.hook
			testHookPanelFact = nil
			if e.panicAt >= 0 {
				testHookPanelFact = func(p int) {
					if p == e.panicAt {
						panic("panel kernel blew up")
					}
				}
			}
			err := d.driver(e.ctx(), e.a.Clone(), make([]int, n), Options{NB: nb, Workers: 3})
			if !e.check(err) {
				t.Errorf("%s: unexpected err %v", tag, err)
			}
			ledger.check(t, tag)
			if e.packs >= 0 && ledger.packs != e.packs {
				t.Errorf("%s: packed %d slabs, want %d", tag, ledger.packs, e.packs)
			}
			if e.packs < 0 && ledger.packs == 0 {
				t.Errorf("%s: run was cut short before any slab was packed; the case tests nothing", tag)
			}
		}
	}
}

// The shared prepack must not bring a per-task allocation with it: what
// an update task allocates is a handful of view headers, the packed-U
// handle and one region closure. Measured as growth between two sizes so
// per-solve constants (goroutines, the state, pool refills after a GC)
// cancel out. A header slice per PrepackB or a pivot slice per panel —
// both were there once — would show up here.
func TestDynamicSteadyStateAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("short mode, or -race (sync.Pool sheds its contents at random)")
	}
	allocs := func(n int) (perRun float64, tasks int) {
		a := matrix.RandomGeneral(n, n, 3)
		f := a.Clone()
		piv := make([]int, n)
		opts := Options{NB: 64, Workers: 2}
		run := func() {
			f.CopyFrom(a)
			if err := Dynamic(f, piv, opts); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the slab pools
		np := panels(n, opts.NB)
		return testing.AllocsPerRun(5, run), np + np*(np-1)/2
	}
	small, smallTasks := allocs(512)
	big, bigTasks := allocs(1024)
	perTask := (big - small) / float64(bigTasks-smallTasks)
	t.Logf("allocs/solve: n=512 %.0f (%d tasks), n=1024 %.0f (%d tasks): %.2f per task", small, smallTasks, big, bigTasks, perTask)
	if perTask > 6.5 {
		t.Errorf("Dynamic allocates %.2f objects per task, want <= 6.5", perTask)
	}
}
