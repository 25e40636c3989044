// Package simlu replays the native-Linpack schedules of internal/lu on the
// simulated Knights Corner in virtual time, regenerating Figure 6 (native
// Linpack performance, static look-ahead vs. dynamic scheduling vs. the
// DGEMM roofline) and Figure 7 (Gantt charts of the execution profile).
//
// The dynamic simulation drives the *same* dag.Scheduler the real driver
// uses, with an exact work-conserving list scheduler over virtual thread
// groups; task durations come from the calibrated machine model. Thread
// groups regroup at super-stage boundaries exactly as Section IV-A
// describes: a drain, a global barrier, then fewer/larger groups.
package simlu

import (
	"container/heap"

	"phihpl/internal/dag"
	"phihpl/internal/machine"
	"phihpl/internal/perfmodel"
	"phihpl/internal/trace"
)

// Config parameterizes a native Linpack simulation.
type Config struct {
	N  int // problem size
	NB int // panel width; 0 picks the paper's k=300 blocking (clamped)
	// MaxGroups is the initial number of thread groups (0 -> 16).
	MaxGroups int
	// Trace, when non-nil, receives one span per executed kernel, with
	// Worker = group index (Figure 7).
	Trace *trace.Recorder
	// Model overrides the Knights Corner model (nil -> NewKNC()).
	Model *perfmodel.KNC
	// DisableRegroup turns super-stage regrouping off (ablation).
	DisableRegroup bool
	// AllThreadsContend models the original Buttari scheme where every
	// hardware thread (not one master per group) enters the scheduler
	// critical section; each scheduler call then costs threads× more
	// (ablation for the master-thread optimization).
	AllThreadsContend bool
}

func (c Config) withDefaults() Config {
	if c.NB < 1 {
		c.NB = 300
	}
	if c.NB > c.N {
		c.NB = c.N
	}
	for c.N/c.NB < 4 && c.NB > 32 { // keep at least 4 panels in play
		c.NB /= 2
	}
	if c.MaxGroups < 1 {
		c.MaxGroups = 4
	}
	if c.Model == nil {
		c.Model = perfmodel.NewKNC()
	}
	return c
}

// Result reports a simulated run.
type Result struct {
	Seconds float64
	GFLOPS  float64
	Eff     float64 // vs. 60-core compute peak
	Stages  int
}

func (c Config) finish(seconds float64) Result {
	flops := perfmodel.LUFlops(c.N)
	peak := machine.KnightsCorner().ComputePeakDPGFLOPS() * 1e9
	g := flops / seconds / 1e9
	return Result{
		Seconds: seconds,
		GFLOPS:  g,
		Eff:     g * 1e9 / peak,
		Stages:  (c.N + c.NB - 1) / c.NB,
	}
}

const (
	cardThreads    = 240 // 60 compute cores × 4 threads
	threadsPerCore = 4
	// schedCallCost is the virtual cost of one scheduler critical-section
	// entry (a contended atomic + cache-line transfer).
	schedCallCost = 0.4e-6
)

// taskCost returns the duration of a task executed by a group owning
// `threads` hardware threads, and the sub-span breakdown for tracing.
func taskCost(m *perfmodel.KNC, n, nb int, t dag.Task, threads int, groups int) (total float64, parts []tracePart) {
	cores := float64(threads) / threadsPerCore
	switch t.Kind {
	case dag.PanelFact:
		lo := t.Panel * nb
		w := nb
		if lo+w > n {
			w = n - lo
		}
		d := m.PanelTime(n-lo, w, threads)
		return d, []tracePart{{"DGETRF", d}}
	default:
		sLo := t.Stage * nb
		sw := nb
		if sLo+sw > n {
			sw = n - sLo
		}
		pLo := t.Panel * nb
		pw := nb
		if pLo+pw > n {
			pw = n - pLo
		}
		swap := m.SwapTimeGroup(sw, pw, 1/float64(groups))
		trsm := m.TrsmTimeGroup(sw, pw, cores)
		var gemm float64
		if rows := n - (sLo + sw); rows > 0 {
			gemm = m.UpdateDgemmTime(rows, pw, sw, cores)
		}
		return swap + trsm + gemm, []tracePart{{"DLASWP", swap}, {"DTRSM", trsm}, {"DGEMM", gemm}}
	}
}

type tracePart struct {
	name string
	d    float64
}

func emit(rec *trace.Recorder, worker, iter int, start float64, parts []tracePart) {
	if rec == nil {
		return
	}
	t := start
	for _, p := range parts {
		if p.d > 0 {
			rec.Add(worker, p.name, iter, t, t+p.d)
			t += p.d
		}
	}
}

// completion is one in-flight task in the event heap.
type completion struct {
	at     float64
	worker int
	task   dag.Task
}

type completionHeap []completion

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// Dynamic simulates the DAG-scheduled native Linpack and returns its
// performance.
func Dynamic(cfg Config) Result {
	cfg = cfg.withDefaults()
	n, nb, m := cfg.N, cfg.NB, cfg.Model
	np := (n + nb - 1) / nb
	sched := dag.New(np)
	plan := dag.GroupPlan{TotalThreads: cardThreads, MaxGroups: cfg.MaxGroups}

	groups := plan.GroupsAt(np)
	if cfg.DisableRegroup {
		groups = cfg.MaxGroups
	}
	threads := plan.ThreadsPerGroup(groups)

	// free[g] = time group g becomes idle; groups all start at 0.
	free := make([]float64, groups)
	var events completionHeap
	factored := 0
	now := 0.0
	draining := false

	schedOverhead := func() float64 {
		if cfg.AllThreadsContend {
			// Every thread of the group redundantly enters the critical
			// section and they serialize against all other threads.
			return schedCallCost * float64(threads) * float64(groups)
		}
		return schedCallCost
	}

	dispatch := func(g int, at float64) bool {
		task, ok := sched.Next()
		if !ok {
			return false
		}
		d, parts := taskCost(m, n, nb, task, threads, groups)
		d += schedOverhead()
		emit(cfg.Trace, g, task.Stage, at, parts)
		heap.Push(&events, completion{at: at + d, worker: g, task: task})
		free[g] = at + d
		return true
	}

	// Kick off: all groups try to grab work at t=0.
	for g := 0; g < groups; g++ {
		if !dispatch(g, 0) {
			break
		}
	}

	for len(events) > 0 {
		ev := heap.Pop(&events).(completion)
		now = ev.at
		sched.Complete(ev.task)
		if ev.task.Kind == dag.PanelFact {
			factored++
		}

		// Super-stage regroup: when the group plan wants fewer groups,
		// drain in-flight work, barrier, regroup.
		if !cfg.DisableRegroup {
			want := plan.GroupsAt(np - factored)
			if want < groups {
				draining = true
			}
			if draining && len(events) == 0 {
				groups = plan.GroupsAt(np - factored)
				threads = plan.ThreadsPerGroup(groups)
				barrier := now + perfmodel.BarrierTime(cardThreads)
				if cfg.Trace != nil {
					cfg.Trace.Add(0, "barrier", factored, now, barrier)
				}
				now = barrier
				free = make([]float64, groups)
				for g := range free {
					free[g] = now
				}
				draining = false
			}
		}
		if draining {
			continue
		}

		// Hand new work to every idle group (the completing one first).
		for g := 0; g < groups; g++ {
			if free[g] <= now {
				if !dispatch(g, now) {
					break
				}
			}
		}
	}
	return cfg.finish(now)
}

// Static simulates the static look-ahead scheme (the Figure 6 baseline):
// per stage, the look-ahead panel is updated and factored by a dedicated
// thread partition while the rest of the groups process the remaining
// updates; a global barrier ends every stage.
func Static(cfg Config) Result {
	cfg = cfg.withDefaults()
	n, nb, m := cfg.N, cfg.NB, cfg.Model
	np := (n + nb - 1) / nb

	now := 0.0
	// Stage 0 panel.
	now += m.PanelTime(n, min(nb, n), cardThreads)
	if cfg.Trace != nil {
		cfg.Trace.Add(0, "DGETRF", 0, 0, now)
	}

	for s := 0; s < np-1; s++ {
		// Look-ahead target update runs on the full machine.
		d1, parts := taskCost(m, n, nb, dag.Task{Kind: dag.Update, Stage: s, Panel: s + 1}, cardThreads, 1)
		emit(cfg.Trace, 0, s, now, parts)
		start := now + d1

		// Remaining updates share the machine minus the panel partition.
		rest := np - (s + 2)
		nextRows := n - (s+1)*nb
		nextW := nb
		if (s+2)*nb > n {
			nextW = n - (s+1)*nb
		}
		// Per-stage balancing (the paper's static rule: the minimum panel
		// partition that balances against the trailing update). Unlike the
		// dynamic scheme, the panel can only overlap with *this* stage's
		// updates — any excess is exposed in max() below, and every stage
		// ends at a global barrier.
		var panelT, restT float64
		if rest == 0 {
			panelT = m.PanelTime(nextRows, nextW, cardThreads)
		} else {
			bestStage := -1.0
			for _, pt := range []int{4, 8, 16, 32, 64, 120, 180, 236} {
				pT := m.PanelTime(nextRows, nextW, pt)
				rT := staticRestTime(m, n, nb, s, rest, cardThreads-pt)
				if st := max(pT, rT); bestStage < 0 || st < bestStage {
					bestStage, panelT, restT = st, pT, rT
				}
			}
		}
		if cfg.Trace != nil {
			cfg.Trace.Add(0, "DGETRF", s+1, start, start+panelT)
			if rest > 0 {
				cfg.Trace.Add(1, "DGEMM", s, start, start+restT)
			}
		}
		stageEnd := start + max(panelT, restT)
		// Fork-join imbalance: the static scheme distributes whole-panel
		// updates to fixed thread teams and joins at a barrier, so each
		// stage carries a tail of roughly one task granule during which
		// most threads idle. The granule fraction is 1/(rest+1) of the
		// stage — large for the small problems of Figure 7a, negligible
		// for the 30K problem where both schemes meet at 832 GFLOPS.
		imbalance := (d1 + max(panelT, restT)) / float64(rest+1)
		barrier := perfmodel.BarrierTime(cardThreads)
		if cfg.Trace != nil {
			cfg.Trace.Add(0, "barrier", s, stageEnd, stageEnd+imbalance+barrier)
		}
		now = stageEnd + imbalance + barrier
	}
	return cfg.finish(now)
}

// staticRestTime estimates the time for the non-look-ahead updates of
// stage s executed by a pool with `threads` hardware threads.
func staticRestTime(m *perfmodel.KNC, n, nb, s, rest, threads int) float64 {
	if rest <= 0 || threads <= 0 {
		return 0
	}
	cores := float64(threads) / threadsPerCore
	sLo := s * nb
	sw := nb
	if sLo+sw > n {
		sw = n - sLo
	}
	total := 0.0
	for i := 0; i < rest; i++ {
		pLo := (s + 2 + i) * nb
		pw := nb
		if pLo+pw > n {
			pw = n - pLo
		}
		total += m.SwapTimeGroup(sw, pw, 1)
		total += m.TrsmTimeGroup(sw, pw, cores)
		if rows := n - (sLo + sw); rows > 0 {
			total += m.UpdateDgemmTime(rows, pw, sw, cores)
		}
	}
	return total
}
