package hpl

import (
	"errors"
	"sync"

	"phihpl/internal/cluster"
	"phihpl/internal/matrix"
)

// ftSnap is one rank's checkpointed state.
type ftSnap struct {
	a          *matrix.Dense // the local matrix, checksum panels included
	globalPiv  []int
	firstError error
}

// clone deep-copies the snapshot.
func (s *ftSnap) clone() *ftSnap {
	return &ftSnap{a: s.a.Clone(), globalPiv: append([]int(nil), s.globalPiv...), firstError: s.firstError}
}

// ftStore is the in-process stand-in for node-local stable storage: it
// survives world teardown, so a respawned world can roll back to the last
// complete (promoted) checkpoint. Deposits are two-phase — a checkpoint
// becomes visible only once every rank has deposited for the same stage,
// so a crash mid-checkpoint can never leave a torn restore point.
type ftStore struct {
	mu      sync.Mutex
	size    int
	stage   int // promoted resume stage (0: none)
	snaps   []*ftSnap
	pending map[int][]*ftSnap

	// failIter is the earliest stage at which a rank of the current
	// attempt failed by its own fault (-1: none yet).
	failIter int

	reconstructions int
	rebuilds        int
	checkpoints     int
}

func newFTStore(size int) *ftStore {
	return &ftStore{size: size, pending: make(map[int][]*ftSnap), failIter: -1}
}

// deposit files rank's snapshot for the given resume stage, promoting the
// checkpoint when it is the last one in.
func (s *ftStore) deposit(rank, stage int, snap *ftSnap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pending[stage]
	if p == nil {
		p = make([]*ftSnap, s.size)
		s.pending[stage] = p
	}
	p[rank] = snap
	for _, sn := range p {
		if sn == nil {
			return
		}
	}
	if stage > s.stage {
		s.stage = stage
		s.snaps = p
		s.checkpoints++
	}
	delete(s.pending, stage)
}

// load returns a deep copy of rank's promoted snapshot (the stored copy
// must stay pristine for further rollbacks) and the stage to resume at.
func (s *ftStore) load(rank int) (*ftSnap, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stage == 0 {
		return nil, 0, false
	}
	return s.snaps[rank].clone(), s.stage, true
}

// newAttempt discards a crashed attempt's partial deposits and failure
// stages.
func (s *ftStore) newAttempt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = make(map[int][]*ftSnap)
	s.failIter = -1
}

// noteFailure records that a rank's attempt ended with err at stage k.
// Only the rank's own faults count (a crash, a timeout, corruption it
// could not localize), not a peer's failure reaching it: peers run ahead
// of a failing rank by however far the abort takes to reach them, so the
// stages they fail at are not a property of the run.
func (s *ftStore) noteFailure(k int, err error) {
	if errors.Is(err, cluster.ErrRankFailed) || errors.Is(err, cluster.ErrAborted) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failIter < 0 || k < s.failIter {
		s.failIter = k
	}
}

// failedAt is the current attempt's failIter.
func (s *ftStore) failedAt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failIter
}

func (s *ftStore) noteReconstruction() {
	s.mu.Lock()
	s.reconstructions++
	s.mu.Unlock()
}

func (s *ftStore) noteRebuild() {
	s.mu.Lock()
	s.rebuilds++
	s.mu.Unlock()
}

func (s *ftStore) counters() (reconstructions, rebuilds, checkpoints int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconstructions, s.rebuilds, s.checkpoints
}
