// Package dag implements the compact DAG-based dynamic scheduler for LU
// factorization described in Section IV of the paper (extending Buttari et
// al. to a many-core processor).
//
// The dependency DAG of blocked LU (Figure 5b) is never materialized.
// Instead, it is represented as a one-dimensional array with one element
// per column panel holding the panel's current stage — the number of
// trailing-update steps already applied to it. A panel p is ready for
// factorization when it has absorbed updates from all p previous stages;
// an update task (s, p) is ready when panel s has been factored and panel
// p has absorbed exactly s updates. Completion increments the panel's
// stage, which requires no critical section in the paper because the same
// thread that executed the task performs the increment; here the whole
// scheduler sits behind one mutex that only group "master" threads touch,
// mirroring the paper's contention fix.
//
// Look-ahead falls out of the task priority: panel factorizations are
// offered before updates, and within a stage the left-most panel (s+1,
// the next look-ahead target) is updated first, so the next panel
// factorization overlaps the remaining updates of the current stage
// (Figure 5c).
package dag

import (
	"fmt"
	"sync"
)

// Kind discriminates the two task categories of the paper's DAG.
type Kind int

const (
	// PanelFact is Task1: factorize panel Panel (DGETRF on the panel).
	PanelFact Kind = iota
	// Update is Task2: apply stage Stage to panel Panel — pivoting
	// (DLASWP), forward solve (DTRSM) and trailing update (DGEMM).
	Update
)

func (k Kind) String() string {
	if k == PanelFact {
		return "PanelFact"
	}
	return "Update"
}

// Task is one schedulable unit.
type Task struct {
	Kind  Kind
	Stage int // Update: stage being applied. PanelFact: == Panel.
	Panel int // target panel
}

func (t Task) String() string {
	if t.Kind == PanelFact {
		return fmt.Sprintf("fact(%d)", t.Panel)
	}
	return fmt.Sprintf("upd(%d->%d)", t.Stage, t.Panel)
}

// Stats reports scheduler activity, used by the contention ablation.
type Stats struct {
	NextCalls     int64 // critical-section entries
	TasksIssued   int64
	TasksComplete int64
}

// Scheduler hands out LU tasks respecting the DAG dependencies. It is safe
// for concurrent use; in the intended deployment only one master thread
// per thread group calls into it.
type Scheduler struct {
	mu       sync.Mutex
	ready    sync.Cond // on mu: a task may have become claimable, or no more ever will
	np       int
	stage    []int  // updates absorbed by each panel
	factored []bool // panel factorization complete
	busy     []bool // a task currently operates on this panel
	nDone    int    // factored panel count
	waiting  int    // callers parked in NextWait
	stopped  bool   // Stop was called: NextWait hands out nothing further
	stats    Stats
}

// New returns a scheduler for a matrix divided into np column panels.
func New(np int) *Scheduler {
	if np < 1 {
		panic("dag: need at least one panel")
	}
	s := &Scheduler{
		np:       np,
		stage:    make([]int, np),
		factored: make([]bool, np),
		busy:     make([]bool, np),
	}
	s.ready.L = &s.mu
	return s
}

// Panels returns the panel count.
func (s *Scheduler) Panels() int { return s.np }

// Next claims the highest-priority ready task. ok is false when nothing is
// ready right now — the caller should retry after some task completes (or
// check Done). Claimed tasks must be reported back via Complete.
func (s *Scheduler) Next() (t Task, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.claim()
}

// NextWait claims the highest-priority ready task, parking the caller
// while nothing is ready. ok is false once no task will ever be handed
// out again: every panel is factored, or Stop was called. A parked caller
// costs nothing — Complete wakes exactly as many as it made work for — so
// an idle thread group no longer spins on the critical section.
func (s *Scheduler) NextWait() (t Task, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped && s.nDone < s.np {
		if t, ok = s.claim(); ok {
			return t, true
		}
		s.waiting++
		s.ready.Wait()
		s.waiting--
	}
	return Task{}, false
}

// Stop makes every current and future NextWait return ok=false. The
// driver calls it when a worker gives up early (a contained panic, a
// cancelled context), so parked workers drain instead of waiting for a
// completion that will never come. Tasks already claimed may still be
// Completed.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.ready.Broadcast()
}

// claim is Next under s.mu.
func (s *Scheduler) claim() (t Task, ok bool) {
	s.stats.NextCalls++

	// Priority 1: look-ahead panel factorization — any panel that has
	// absorbed all its updates and awaits factorization.
	for p := 0; p < s.np; p++ {
		if !s.factored[p] && !s.busy[p] && s.stage[p] == p {
			s.busy[p] = true
			s.stats.TasksIssued++
			return Task{Kind: PanelFact, Stage: p, Panel: p}, true
		}
	}
	// Priority 2: the left-most ready update of the lowest stage.
	bestPanel := -1
	bestStage := s.np + 1
	for p := 0; p < s.np; p++ {
		if s.factored[p] || s.busy[p] {
			continue
		}
		st := s.stage[p]
		if st < p && s.factored[st] && st < bestStage {
			bestStage, bestPanel = st, p
		}
	}
	if bestPanel >= 0 {
		s.busy[bestPanel] = true
		s.stats.TasksIssued++
		return Task{Kind: Update, Stage: bestStage, Panel: bestPanel}, true
	}
	return Task{}, false
}

// Complete reports that a claimed task finished, releasing its panel and
// advancing the DAG.
func (s *Scheduler) Complete(t Task) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Panel < 0 || t.Panel >= s.np || !s.busy[t.Panel] {
		panic(fmt.Sprintf("dag: Complete(%v) for a task that was not issued", t))
	}
	s.busy[t.Panel] = false
	s.stats.TasksComplete++
	switch t.Kind {
	case PanelFact:
		if s.factored[t.Panel] || s.stage[t.Panel] != t.Panel {
			panic(fmt.Sprintf("dag: Complete(%v) violates DAG state", t))
		}
		s.factored[t.Panel] = true
		s.nDone++
	case Update:
		if s.stage[t.Panel] != t.Stage {
			panic(fmt.Sprintf("dag: Complete(%v) out of order (stage=%d)", t, s.stage[t.Panel]))
		}
		s.stage[t.Panel]++
	}
	s.wake()
}

// wake, under s.mu after a completion, rouses parked callers: all of them
// once the last panel is factored, otherwise one per task that is
// claimable right now. The completing caller usually comes straight back
// for one of those itself, so at most one woken caller per completion
// finds nothing and parks again — Next calls stay within twice the task
// count however many thread groups idle.
func (s *Scheduler) wake() {
	if s.waiting == 0 {
		return
	}
	if s.nDone == s.np {
		s.ready.Broadcast()
		return
	}
	n := 0
	for p := 0; p < s.np && n < s.waiting; p++ {
		if s.factored[p] || s.busy[p] {
			continue
		}
		if st := s.stage[p]; st == p || s.factored[st] {
			n++
		}
	}
	for ; n > 0; n-- {
		s.ready.Signal()
	}
}

// Done reports whether every panel has been factored.
func (s *Scheduler) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nDone == s.np
}

// Stats returns a snapshot of scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TotalTasks returns the number of tasks the full factorization requires:
// np panel factorizations plus np(np-1)/2 updates.
func TotalTasks(np int) int { return np + np*(np-1)/2 }

// GroupPlan describes the super-stage thread regrouping of Section IV-A:
// within a super-stage the partitioning of hardware threads into task
// groups is fixed; at super-stage boundaries a global barrier is executed
// and threads are regrouped into fewer, larger groups so that panel
// factorization keeps up as trailing updates shrink.
type GroupPlan struct {
	TotalThreads int
	MaxGroups    int
}

// GroupsAt returns how many task groups the plan uses while `remaining`
// panels are left. The group count halves as the remaining work shrinks,
// which doubles the threads available to each panel factorization; the
// halving schedule keeps regrouping barriers infrequent (logarithmic in
// panel count).
func (g GroupPlan) GroupsAt(remaining int) int {
	if remaining < 1 {
		remaining = 1
	}
	n := g.MaxGroups
	if n < 1 {
		n = 1
	}
	for n > 1 && remaining < 2*n {
		n /= 2
	}
	return n
}

// ThreadsPerGroup returns the thread allocation for the given group count.
func (g GroupPlan) ThreadsPerGroup(groups int) int {
	if groups < 1 {
		groups = 1
	}
	t := g.TotalThreads / groups
	if t < 1 {
		t = 1
	}
	return t
}

// Boundaries returns the super-stage boundaries for np panels: the list of
// stages at which the plan regroups (excluding stage 0), in order.
func (g GroupPlan) Boundaries(np int) []int {
	var out []int
	cur := g.GroupsAt(np)
	for s := 1; s < np; s++ {
		if n := g.GroupsAt(np - s); n != cur {
			out = append(out, s)
			cur = n
		}
	}
	return out
}
