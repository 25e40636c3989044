package dag

import (
	"sync"
	"testing"
	"testing/quick"

	"phihpl/internal/matrix"
)

// executeAll drains the scheduler with a given completion strategy:
// claim up to width tasks, then complete one chosen by pick(len(inflight)).
// It verifies all DAG invariants along the way and returns the execution
// order.
func executeAll(t *testing.T, np, width int, pick func(n int) int) []Task {
	t.Helper()
	s := New(np)
	factDone := make([]bool, np)
	updDone := make(map[[2]int]bool)
	var inflight []Task
	var order []Task

	for !s.Done() || len(inflight) > 0 {
		// Claim as many tasks as the window allows.
		for len(inflight) < width {
			task, ok := s.Next()
			if !ok {
				break
			}
			// Dependency checks at issue time.
			switch task.Kind {
			case PanelFact:
				for st := 0; st < task.Panel; st++ {
					if !updDone[[2]int{st, task.Panel}] {
						t.Fatalf("fact(%d) issued before upd(%d->%d)", task.Panel, st, task.Panel)
					}
				}
				if factDone[task.Panel] {
					t.Fatalf("fact(%d) issued twice", task.Panel)
				}
			case Update:
				if !factDone[task.Stage] {
					t.Fatalf("upd(%d->%d) issued before fact(%d)", task.Stage, task.Panel, task.Stage)
				}
				if task.Stage > 0 && !updDone[[2]int{task.Stage - 1, task.Panel}] {
					t.Fatalf("upd(%d->%d) issued before previous stage applied", task.Stage, task.Panel)
				}
				if updDone[[2]int{task.Stage, task.Panel}] {
					t.Fatalf("upd(%d->%d) issued twice", task.Stage, task.Panel)
				}
			}
			inflight = append(inflight, task)
		}
		if len(inflight) == 0 {
			if !s.Done() {
				t.Fatal("deadlock: nothing in flight, scheduler not done")
			}
			break
		}
		i := pick(len(inflight))
		task := inflight[i]
		inflight = append(inflight[:i], inflight[i+1:]...)
		switch task.Kind {
		case PanelFact:
			factDone[task.Panel] = true
		case Update:
			updDone[[2]int{task.Stage, task.Panel}] = true
		}
		s.Complete(task)
		order = append(order, task)
	}

	// Completeness.
	for p := 0; p < np; p++ {
		if !factDone[p] {
			t.Fatalf("panel %d never factored", p)
		}
		for st := 0; st < p; st++ {
			if !updDone[[2]int{st, p}] {
				t.Fatalf("upd(%d->%d) never executed", st, p)
			}
		}
	}
	if len(order) != TotalTasks(np) {
		t.Fatalf("executed %d tasks, want %d", len(order), TotalTasks(np))
	}
	return order
}

func TestSerialExecution(t *testing.T) {
	order := executeAll(t, 6, 1, func(n int) int { return 0 })
	// First task must be fact(0); second upd(0->1); third fact(1)
	// (look-ahead priority).
	if order[0].String() != "fact(0)" {
		t.Errorf("first = %v", order[0])
	}
	if order[1].String() != "upd(0->1)" {
		t.Errorf("second = %v", order[1])
	}
	if order[2].String() != "fact(1)" {
		t.Errorf("third (look-ahead) = %v, want fact(1)", order[2])
	}
}

func TestWideWindowFIFO(t *testing.T) {
	executeAll(t, 10, 8, func(n int) int { return 0 })
}

func TestWideWindowLIFO(t *testing.T) {
	executeAll(t, 10, 8, func(n int) int { return n - 1 })
}

func TestRandomCompletionOrderProperty(t *testing.T) {
	f := func(seed uint64, npRaw, widthRaw uint8) bool {
		np := 2 + int(npRaw)%12
		width := 1 + int(widthRaw)%6
		rng := matrix.NewPRNG(seed)
		// run with random completion choice; executeAll fails the test
		// itself on invariant violations.
		executeAll(t, np, width, func(n int) int { return rng.Intn(n) })
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSinglePanel(t *testing.T) {
	s := New(1)
	task, ok := s.Next()
	if !ok || task.Kind != PanelFact || task.Panel != 0 {
		t.Fatalf("task = %v ok=%v", task, ok)
	}
	if _, ok := s.Next(); ok {
		t.Error("nothing else should be ready")
	}
	s.Complete(task)
	if !s.Done() {
		t.Error("should be done")
	}
}

func TestLookaheadPriority(t *testing.T) {
	// With panels 0..3: after fact(0), updates are ready. Claim upd(0->1),
	// complete it; the very next task must be fact(1) even though other
	// stage-0 updates remain.
	s := New(4)
	f0, _ := s.Next()
	s.Complete(f0)
	u01, _ := s.Next()
	if u01.String() != "upd(0->1)" {
		t.Fatalf("got %v", u01)
	}
	s.Complete(u01)
	next, _ := s.Next()
	if next.String() != "fact(1)" {
		t.Errorf("look-ahead violated: got %v, want fact(1)", next)
	}
}

func TestPanelBusyExclusion(t *testing.T) {
	// While upd(0->2) is in flight, no other task may touch panel 2.
	s := New(3)
	f0, _ := s.Next()
	s.Complete(f0)
	first, _ := s.Next() // upd(0->1)
	second, _ := s.Next()
	if second.Panel == first.Panel {
		t.Errorf("two concurrent tasks on panel %d", first.Panel)
	}
	if _, ok := s.Next(); ok {
		t.Error("only two updates can be in flight after fact(0) in a 3-panel DAG")
	}
}

func TestCompletePanics(t *testing.T) {
	s := New(3)
	for name, bad := range map[string]Task{
		"not-issued":   {Kind: Update, Stage: 0, Panel: 1},
		"out-of-range": {Kind: Update, Stage: 0, Panel: 99},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			s.Complete(bad)
		}()
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0 panels")
		}
	}()
	New(0)
}

func TestStats(t *testing.T) {
	s := New(3)
	task, _ := s.Next()
	s.Complete(task)
	st := s.Stats()
	if st.NextCalls != 1 || st.TasksIssued != 1 || st.TasksComplete != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrentWorkersDrainDAG(t *testing.T) {
	// Hammer the scheduler from many goroutines (run with -race).
	np := 24
	s := New(np)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, ok := s.Next()
				if !ok {
					if s.Done() {
						return
					}
					continue
				}
				s.Complete(task)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.TasksComplete != int64(TotalTasks(np)) {
		t.Errorf("completed %d tasks, want %d", st.TasksComplete, TotalTasks(np))
	}
}

func TestTotalTasks(t *testing.T) {
	if TotalTasks(1) != 1 || TotalTasks(4) != 4+6 {
		t.Error("TotalTasks")
	}
}

func TestGroupPlan(t *testing.T) {
	g := GroupPlan{TotalThreads: 240, MaxGroups: 16}
	// Plenty of panels left: all groups active.
	if got := g.GroupsAt(100); got != 16 {
		t.Errorf("GroupsAt(100) = %d, want 16", got)
	}
	// Few panels left: groups merge.
	if got := g.GroupsAt(4); got != 2 {
		t.Errorf("GroupsAt(4) = %d, want 2", got)
	}
	if got := g.GroupsAt(1); got != 1 {
		t.Errorf("GroupsAt(1) = %d, want 1", got)
	}
	if got := g.GroupsAt(0); got != 1 {
		t.Errorf("GroupsAt(0) = %d", got)
	}
	// Monotone non-increasing as work shrinks.
	prev := 1 << 30
	for rem := 120; rem >= 1; rem-- {
		n := g.GroupsAt(rem)
		if n > prev {
			t.Fatalf("groups grew as work shrank at rem=%d", rem)
		}
		prev = n
	}
	if g.ThreadsPerGroup(16) != 15 {
		t.Errorf("ThreadsPerGroup(16) = %d", g.ThreadsPerGroup(16))
	}
	if g.ThreadsPerGroup(0) != 240 {
		t.Errorf("ThreadsPerGroup(0) = %d", g.ThreadsPerGroup(0))
	}
	if (GroupPlan{TotalThreads: 0, MaxGroups: 0}).ThreadsPerGroup(5) != 1 {
		t.Error("threads clamp to 1")
	}
}

func TestGroupPlanBoundaries(t *testing.T) {
	g := GroupPlan{TotalThreads: 240, MaxGroups: 16}
	b := g.Boundaries(100)
	if len(b) == 0 {
		t.Fatal("expected some super-stage boundaries")
	}
	// Boundaries are strictly increasing and fall inside (0, np).
	prev := 0
	for _, s := range b {
		if s <= prev || s >= 100 {
			t.Fatalf("bad boundary %d in %v", s, b)
		}
		prev = s
	}
	// Logarithmically few barriers — the point of super-stages.
	if len(b) > 6 {
		t.Errorf("too many regroup barriers: %v", b)
	}
}

func TestKindAndTaskStrings(t *testing.T) {
	if PanelFact.String() != "PanelFact" || Update.String() != "Update" {
		t.Error("kind strings")
	}
}

func TestPanelsAccessor(t *testing.T) {
	if New(7).Panels() != 7 {
		t.Error("Panels")
	}
}

func TestCompleteUpdateOutOfOrderPanics(t *testing.T) {
	s := New(3)
	f0, _ := s.Next()
	s.Complete(f0)
	u, _ := s.Next() // upd(0->1)
	// Forge a wrong-stage completion for the same panel.
	bad := Task{Kind: Update, Stage: 1, Panel: u.Panel}
	defer func() {
		if recover() == nil {
			t.Error("expected out-of-order panic")
		}
	}()
	s.Complete(bad)
}

func TestCompleteFactWrongStatePanics(t *testing.T) {
	s := New(2)
	f0, _ := s.Next()
	s.Complete(f0)
	u, _ := s.Next() // upd(0->1), panel 1 busy
	_ = u
	// Forge a premature factorization completion for panel 1.
	defer func() {
		if recover() == nil {
			t.Error("expected DAG-state panic")
		}
	}()
	s.Complete(Task{Kind: PanelFact, Stage: 1, Panel: 1})
}

// Parked workers must drain the whole DAG (run with -race), and the point
// of parking: however many groups idle, critical-section entries stay
// within twice the task count, where the old Next+Gosched loop made tens
// of thousands.
func TestNextWaitDrainsDAGWithoutSpinning(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		np := 24
		s := New(np)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					task, ok := s.NextWait()
					if !ok {
						return
					}
					s.Complete(task)
				}
			}()
		}
		wg.Wait()
		st := s.Stats()
		if !s.Done() || st.TasksComplete != int64(TotalTasks(np)) {
			t.Fatalf("workers=%d: completed %d of %d tasks", workers, st.TasksComplete, TotalTasks(np))
		}
		if limit := 2*int64(TotalTasks(np)) + int64(workers); st.NextCalls > limit {
			t.Errorf("workers=%d: %d Next calls for %d tasks, want <= %d", workers, st.NextCalls, TotalTasks(np), limit)
		}
	}
}

// A worker parked behind an unfinished task wakes when that task
// completes, and NextWait reports ok=false only once the DAG is done.
func TestNextWaitParksUntilComplete(t *testing.T) {
	s := New(2)
	fact0, ok := s.NextWait()
	if !ok || fact0.Kind != PanelFact || fact0.Panel != 0 {
		t.Fatalf("first task = %v, %v", fact0, ok)
	}
	got := make(chan Task)
	go func() {
		task, _ := s.NextWait() // nothing is ready until fact(0) completes
		got <- task
	}()
	select {
	case task := <-got:
		t.Fatalf("NextWait returned %v while nothing was ready", task)
	default:
	}
	s.Complete(fact0)
	if task := <-got; task.Kind != Update || task.Stage != 0 || task.Panel != 1 {
		t.Fatalf("woken worker claimed %v, want upd(0->1)", task)
	}
}

// Stop releases parked workers with ok=false and keeps later callers from
// claiming, while a task claimed before it may still be completed.
func TestStopReleasesParkedWorkers(t *testing.T) {
	s := New(3)
	fact0, _ := s.NextWait()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if task, ok := s.NextWait(); ok {
				t.Errorf("NextWait handed out %v after Stop", task)
			}
		}()
	}
	s.Stop()
	wg.Wait()
	s.Complete(fact0)
	if _, ok := s.NextWait(); ok {
		t.Error("NextWait claimed a task after Stop")
	}
	if s.Done() {
		t.Error("a stopped scheduler must not report Done")
	}
}
