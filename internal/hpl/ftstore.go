package hpl

import (
	"sync"

	"phihpl/internal/matrix"
)

// ftSnap is one rank's checkpointed state.
type ftSnap struct {
	a          *matrix.Dense // the local matrix
	chk1, chk2 *matrix.Dense // its checksum rows (nil off the checksum column)
	globalPiv  []int
	firstError error
}

// clone deep-copies the snapshot.
func (s *ftSnap) clone() *ftSnap {
	c := &ftSnap{a: s.a.Clone(), globalPiv: append([]int(nil), s.globalPiv...), firstError: s.firstError}
	if s.chk1 != nil {
		c.chk1, c.chk2 = s.chk1.Clone(), s.chk2.Clone()
	}
	return c
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

	maxIter         int
	reconstructions int
	rebuilds        int
	checkpoints     int
}

func newFTStore(size int) *ftStore {
	return &ftStore{size: size, pending: make(map[int][]*ftSnap)}
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

// resetPending discards partial deposits from a crashed attempt.
func (s *ftStore) resetPending() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = make(map[int][]*ftSnap)
}

func (s *ftStore) noteIter(k int) {
	s.mu.Lock()
	if k > s.maxIter {
		s.maxIter = k
	}
	s.mu.Unlock()
}

func (s *ftStore) iterReached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxIter
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
