package cluster

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"phihpl/internal/fault"
	"phihpl/internal/machine"
	"phihpl/internal/testutil"
)

func TestSendRecv(t *testing.T) {
	defer testutil.NoLeaks(t)()
	w := NewWorld(2, 4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{1, 2}, []int{3})
		}
		m, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if m.Src != 0 || len(m.F) != 2 || m.F[1] != 2 || m.I[0] != 3 {
			t.Errorf("bad message: %+v", m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2, 4)
	buf := []float64{1}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, buf, nil); err != nil {
				return err
			}
			buf[0] = 99 // mutate after send: receiver must not see it
			return nil
		}
		m, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if m.F[0] != 1 {
			t.Errorf("payload not copied: %v", m.F[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv32(t *testing.T) {
	defer testutil.NoLeaks(t)()
	w := NewWorld(2, 4)
	buf := []float32{1.5, -2.25}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send32(1, 7, buf, []int{3}); err != nil {
				return err
			}
			buf[0] = 99 // mutate after send: receiver must not see it
			return nil
		}
		m, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if m.Src != 0 || len(m.F32) != 2 || m.F32[0] != 1.5 || m.F32[1] != -2.25 || m.I[0] != 3 {
			t.Errorf("bad message: %+v", m)
		}
		if len(m.F) != 0 {
			t.Errorf("FP64 payload should be empty, got %v", m.F)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChecksumCoversF32(t *testing.T) {
	base := Msg{Src: 1, Tag: 2, F32: []float32{1, 2, 3}}
	flipped := Msg{Src: 1, Tag: 2, F32: []float32{1, 2.0000002, 3}}
	if msgChecksum(base) == msgChecksum(flipped) {
		t.Error("checksum must change when an F32 element changes")
	}
	short := Msg{Src: 1, Tag: 2, F32: []float32{1, 2}}
	if msgChecksum(base) == msgChecksum(short) {
		t.Error("checksum must cover the F32 length")
	}
}

func TestCorruptPacketFlipsF32(t *testing.T) {
	pkt := &packet{msg: Msg{F32: []float32{4, 5, 6}}, seq: 1}
	out := corruptPacket(pkt)
	if out.msg.F32[1] == 5 {
		t.Error("F32 payload not corrupted")
	}
	if pkt.msg.F32[1] != 5 {
		t.Error("original packet mutated; retransmission would resend garbage")
	}
}

func TestBcast(t *testing.T) {
	w := NewWorld(4, 4)
	var mu sync.Mutex
	got := map[int]float64{}
	err := w.Run(func(c *Comm) error {
		m, err := c.Bcast(2, 5, []float64{42}, nil)
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = m.F[0]
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if got[r] != 42 {
			t.Errorf("rank %d got %v", r, got[r])
		}
	}
}

func TestBarrier(t *testing.T) {
	w := NewWorld(8, 4)
	var mu sync.Mutex
	phase := map[int]int{}
	err := w.Run(func(c *Comm) error {
		mu.Lock()
		phase[c.Rank()] = 1
		mu.Unlock()
		if err := c.Barrier(); err != nil {
			return err
		}
		// After the barrier, every rank must have reached phase 1.
		mu.Lock()
		for r := 0; r < 8; r++ {
			if phase[r] != 1 {
				t.Errorf("rank %d passed barrier before rank %d arrived", c.Rank(), r)
			}
		}
		mu.Unlock()
		return c.Barrier() // reusable
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatchError(t *testing.T) {
	w := NewWorld(2, 4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, nil, nil)
		}
		_, err := c.Recv(0, 2)
		return err
	})
	if !errors.Is(err, ErrTagMismatch) {
		t.Errorf("want ErrTagMismatch, got %v", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Rank != 1 || oe.Peer != 0 {
		t.Errorf("OpError details wrong: %+v", oe)
	}
}

func TestInvalidRankError(t *testing.T) {
	w := NewWorld(1, 1)
	err := w.Run(func(c *Comm) error {
		if err := c.Send(5, 0, nil, nil); !errors.Is(err, ErrInvalidRank) {
			t.Errorf("Send to invalid rank: want ErrInvalidRank, got %v", err)
		}
		_, err := c.Recv(-1, 0)
		if !errors.Is(err, ErrInvalidRank) {
			t.Errorf("Recv from invalid rank: want ErrInvalidRank, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewWorldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWorld(0, 1)
}

func TestRunRecoversPanicIntoError(t *testing.T) {
	defer testutil.NoLeaks(t)()
	w := NewWorldOpts(3, Options{Timeout: 2 * time.Second})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		// The other ranks block on the dying rank: they must unblock with
		// a typed error, not deadlock.
		_, err := c.Recv(1, 9)
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *RankPanicError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Errorf("expected RankPanicError for rank 1, got %v", err)
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Error("panic should match ErrRankFailed")
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("panic value lost: %v", pe)
	}
}

func TestRecvTimeout(t *testing.T) {
	defer testutil.NoLeaks(t)()
	w := NewWorldOpts(2, Options{Timeout: 30 * time.Millisecond})
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // never sends
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want ErrTimeout, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timeout took %v", d)
	}
}

func TestBarrierTimeout(t *testing.T) {
	w := NewWorldOpts(2, Options{Timeout: 30 * time.Millisecond})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // never arrives
		}
		return c.Barrier()
	})
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("want ErrTimeout, got %v", err)
	}
}

func TestBarrierRankFailure(t *testing.T) {
	w := NewWorldOpts(3, Options{Timeout: 5 * time.Second})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return errors.New("deliberate failure")
		}
		return c.Barrier()
	})
	// The failed rank's own error plus the broken-barrier errors.
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("missing rank error: %v", err)
	}
	if !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrAborted) {
		t.Errorf("peers should see ErrRankFailed/ErrAborted: %v", err)
	}
}

func TestRecvFromFailedRankDrainsQueuedData(t *testing.T) {
	// A rank that sends, then dies: its queued messages must still be
	// receivable before ErrRankFailed surfaces.
	w := NewWorldOpts(2, Options{Timeout: 2 * time.Second})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []float64{7}, nil); err != nil {
				return err
			}
			return errors.New("rank 0 dies after sending")
		}
		time.Sleep(20 * time.Millisecond) // let rank 0 die first
		m, err := c.Recv(0, 1)
		if err != nil {
			t.Errorf("queued message lost: %v", err)
			return nil
		}
		if m.F[0] != 7 {
			t.Errorf("bad payload %v", m.F)
		}
		// Next receive finds the link dead.
		if _, err := c.Recv(0, 2); !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrAborted) {
			t.Errorf("want ErrRankFailed/ErrAborted, got %v", err)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 dies") {
		t.Fatalf("expected rank 0's error: %v", err)
	}
}

// --- chaos-mode transport ------------------------------------------------

func lossyRing(t *testing.T, plan *fault.Plan, rounds int) Stats {
	t.Helper()
	const n = 4
	in := fault.NewInjector(plan)
	w := NewWorldOpts(n, Options{Timeout: 5 * time.Second, Injector: in})
	err := w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for r := 0; r < rounds; r++ {
			if err := c.Send(next, 100+r, []float64{float64(c.Rank()*1000 + r)}, []int{r}); err != nil {
				return err
			}
			m, err := c.Recv(prev, 100+r)
			if err != nil {
				return err
			}
			if m.F[0] != float64(prev*1000+r) || m.I[0] != r {
				t.Errorf("rank %d round %d: corrupt delivery %v %v", c.Rank(), r, m.F, m.I)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("lossy ring failed: %v", err)
	}
	return w.Stats()
}

func TestLossyDeliveryDrop(t *testing.T) {
	defer testutil.NoLeaks(t)()
	st := lossyRing(t, &fault.Plan{Seed: 11, Drop: 0.25}, 40)
	if st.Faults.Drops == 0 {
		t.Error("no drops injected at p=0.25")
	}
	if st.Resends == 0 {
		t.Error("drops must force retransmissions")
	}
}

func TestLossyDeliveryDupAndDelay(t *testing.T) {
	st := lossyRing(t, &fault.Plan{Seed: 5, Dup: 0.3, Delay: 0.2, DelayFor: time.Millisecond}, 30)
	if st.Faults.Dups == 0 || st.Faults.Delays == 0 {
		t.Errorf("expected dups and delays: %+v", st.Faults)
	}
}

func TestLossyDeliveryCorruption(t *testing.T) {
	st := lossyRing(t, &fault.Plan{Seed: 23, Corrupt: 0.2}, 40)
	if st.Faults.Corrupts == 0 {
		t.Error("no corruption injected at p=0.2")
	}
	if st.ChecksumRejects == 0 {
		t.Error("corrupt packets must be rejected by checksum")
	}
}

func TestLossyDeliveryCorruptionF32(t *testing.T) {
	// The FP32 wire path must survive chaos mode: corrupt packets carrying
	// F32 payloads are rejected by checksum and retransmitted clean.
	defer testutil.NoLeaks(t)()
	const n = 4
	in := fault.NewInjector(&fault.Plan{Seed: 31, Drop: 0.15, Corrupt: 0.2})
	w := NewWorldOpts(n, Options{Timeout: 5 * time.Second, Injector: in})
	err := w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for r := 0; r < 40; r++ {
			if err := c.Send32(next, 200+r, []float32{float32(c.Rank()*1000 + r)}, []int{r}); err != nil {
				return err
			}
			m, err := c.Recv(prev, 200+r)
			if err != nil {
				return err
			}
			if m.F32[0] != float32(prev*1000+r) || m.I[0] != r {
				t.Errorf("rank %d round %d: corrupt F32 delivery %v %v", c.Rank(), r, m.F32, m.I)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("lossy F32 ring failed: %v", err)
	}
	st := w.Stats()
	if st.Faults.Corrupts == 0 {
		t.Error("no corruption injected at p=0.2")
	}
	if st.ChecksumRejects == 0 {
		t.Error("corrupt F32 packets must be rejected by checksum")
	}
}

func TestLossyEverythingAtOnce(t *testing.T) {
	defer testutil.NoLeaks(t)()
	lossyRing(t, &fault.Plan{
		Seed: 99, Drop: 0.15, Dup: 0.15, Corrupt: 0.1,
		Delay: 0.1, DelayFor: 500 * time.Microsecond,
	}, 30)
}

func TestLossyRepeatable(t *testing.T) {
	// Same plan, same protocol ⇒ the same faults fire on both runs (the
	// per-transmission decisions are pure hashes; only the retry count
	// can vary with scheduling). Both runs must deliver and inject.
	a := lossyRing(t, &fault.Plan{Seed: 7, Drop: 0.2, Corrupt: 0.1}, 25)
	b := lossyRing(t, &fault.Plan{Seed: 7, Drop: 0.2, Corrupt: 0.1}, 25)
	if a.Faults.Drops == 0 || b.Faults.Drops == 0 {
		t.Errorf("both runs must inject drops: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Faults.Corrupts == 0 || b.Faults.Corrupts == 0 {
		t.Errorf("both runs must inject corruption: %+v vs %+v", a.Faults, b.Faults)
	}
}

func TestInjectedCrashSurfacesTypedError(t *testing.T) {
	defer testutil.NoLeaks(t)()
	in := fault.NewInjector(&fault.Plan{Crashes: []fault.RankEvent{{Rank: 1, Iter: 2}}})
	w := NewWorldOpts(3, Options{Timeout: 2 * time.Second, Injector: in})
	err := w.Run(func(c *Comm) error {
		for iter := 0; iter < 5; iter++ {
			if err := c.Progress(iter); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, fault.ErrInjectedCrash) {
		t.Errorf("want injected crash in error chain, got %v", err)
	}
	if !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrAborted) {
		t.Errorf("peers should observe the failure: %v", err)
	}
}

func TestStallRecoversWhenShorterThanTimeout(t *testing.T) {
	in := fault.NewInjector(&fault.Plan{Stalls: []fault.StallEvent{{Rank: 0, Iter: 1, Dur: 20 * time.Millisecond}}})
	w := NewWorldOpts(2, Options{Timeout: 2 * time.Second, Injector: in})
	err := w.Run(func(c *Comm) error {
		for iter := 0; iter < 3; iter++ {
			if err := c.Progress(iter); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("short stall should be absorbed: %v", err)
	}
}

func TestWatchdogDumpsOnStall(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, strings.TrimSpace(format))
		mu.Unlock()
	}
	w := NewWorldOpts(2, Options{
		Timeout:  200 * time.Millisecond,
		Watchdog: 30 * time.Millisecond,
		Logf:     logf,
	})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Recv(1, 42) // peer never sends: a stall
			return err
		}
		time.Sleep(150 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout from the stalled recv, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "no progress") || !strings.Contains(joined, "rank %d") {
		t.Errorf("watchdog dump missing: %q", joined)
	}
}

func TestManyRanksStress(t *testing.T) {
	defer testutil.NoLeaks(t)()
	// Ring-pass under race detector.
	const n = 16
	w := NewWorld(n, 2)
	err := w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		if err := c.Send(next, 9, []float64{float64(c.Rank())}, nil); err != nil {
			return err
		}
		m, err := c.Recv(prev, 9)
		if err != nil {
			return err
		}
		if int(m.F[0]) != prev {
			t.Errorf("rank %d got token %v", c.Rank(), m.F[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCostModel(t *testing.T) {
	m := NewCostModel()
	if m.Net.BWBytes != machine.FDRInfiniband().BWBytes {
		t.Error("default net wrong")
	}
	// 6 GB at 6 GB/s ~ 1 s.
	if d := m.PtToPt(6e9); d < 1.0 || d > 1.001 {
		t.Errorf("PtToPt = %v", d)
	}
	if m.PtToPt(0) != 0 {
		t.Error("zero bytes free")
	}
	// Pipelined broadcast: payload crosses the wire once, latency x3 rounds.
	if d := m.Bcast(6e9, 8); d < 1.0 || d > 1.001 {
		t.Errorf("Bcast = %v", d)
	}
	if m.Bcast(6e9, 8) >= 2*m.PtToPt(6e9) {
		t.Error("long-message bcast should not multiply bandwidth cost")
	}
	if m.Bcast(100, 1) != 0 {
		t.Error("single-member bcast free")
	}
	// Swap exchange moves (P-1)/P of the bytes.
	d2 := m.SwapExchange(6e9, 2)
	d4 := m.SwapExchange(6e9, 4)
	if !(d4 > d2) {
		t.Errorf("swap cost should grow with rows: %v %v", d2, d4)
	}
	if m.SwapExchange(100, 1) != 0 {
		t.Error("single-row swap free")
	}
	if m.PivotAllreduce(100, 1) != 0 {
		t.Error("single-row pivoting free")
	}
	if m.PivotAllreduce(100, 4) <= m.PivotAllreduce(100, 2) {
		t.Error("pivot allreduce grows with rows")
	}
}

func TestCostModelRecoveryPricing(t *testing.T) {
	m := NewCostModel()
	if m.Resend(1e6, 0) != 0 {
		t.Error("no loss, no resend cost")
	}
	lo, hi := m.Resend(1e6, 0.01), m.Resend(1e6, 0.1)
	if !(hi > lo && lo > 0) {
		t.Errorf("resend cost must grow with loss rate: %v %v", lo, hi)
	}
	// 2 GB at the 2 GB/s default checkpoint bandwidth ~ 1 s.
	if d := m.CheckpointWrite(2e9); d < 0.99 || d > 1.01 {
		t.Errorf("CheckpointWrite = %v", d)
	}
	if m.CheckpointWrite(0) != 0 {
		t.Error("empty checkpoint free")
	}
	// Checksum maintenance: 2 columns × 2·mLoc·nb² flops.
	rate := 1e9
	d := m.ChecksumUpdate(1000, 100, rate)
	want := 2 * 2 * 1000.0 * 100 * 100 / rate
	if d < 0.99*want || d > 1.01*want {
		t.Errorf("ChecksumUpdate = %v, want %v", d, want)
	}
	if m.ChecksumUpdate(0, 100, rate) != 0 {
		t.Error("empty update free")
	}
}

// TestHandOverDeliversTheSendersSlices runs a ring of hand-overs under the
// clean transport and each chaos plan: every payload must arrive bit for
// bit, as the sender's own slices (no copy on the way), and the sender's
// slices must still hold what was sent once the world has finished — the
// fabric, retransmissions and corrupted copies included, never wrote them.
func TestHandOverDeliversTheSendersSlices(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const n, rounds = 4, 30
	payload := func(rank, r int) Msg {
		v := float64(rank*1000+r) + 0.25
		negZero := math.Copysign(0, -1)
		return Msg{
			Tag: 300 + r,
			F:   []float64{v, negZero, math.Float64frombits(0x7ff8dead00000000 | uint64(r)), 5e-324, -v},
			F32: []float32{float32(v), math.Float32frombits(0x7fc0beef), float32(negZero), 1e-45},
			I:   []int{rank, r},
		}
	}
	same := func(a, b Msg) bool {
		if len(a.F) != len(b.F) || len(a.F32) != len(b.F32) || !slices.Equal(a.I, b.I) {
			return false
		}
		for i := range a.F {
			if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
				return false
			}
		}
		for i := range a.F32 {
			if math.Float32bits(a.F32[i]) != math.Float32bits(b.F32[i]) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"clean", nil},
		{"drop", &fault.Plan{Seed: 11, Drop: 0.25}},
		{"dup-delay", &fault.Plan{Seed: 5, Dup: 0.3, Delay: 0.2, DelayFor: time.Millisecond}},
		{"corrupt", &fault.Plan{Seed: 23, Corrupt: 0.3}},
		{"everything", &fault.Plan{Seed: 99, Drop: 0.15, Dup: 0.15, Corrupt: 0.1, Delay: 0.1, DelayFor: 500 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{Timeout: 5 * time.Second}
			if tc.plan != nil {
				opt.Injector = fault.NewInjector(tc.plan)
			}
			w := NewWorldOpts(n, opt)
			sent := make([][]Msg, n) // sent[rank][round], written by rank only
			for rank := range sent {
				sent[rank] = make([]Msg, rounds)
			}
			err := w.Run(func(c *Comm) error {
				me := c.Rank()
				next, prev := (me+1)%n, (me+n-1)%n
				for r := 0; r < rounds; r++ {
					m := payload(me, r)
					sent[me][r] = m
					if err := c.HandOver(next, m); err != nil {
						return err
					}
					got, err := c.Recv(prev, 300+r)
					if err != nil {
						return err
					}
					if !same(got, payload(prev, r)) || got.Src != prev {
						t.Errorf("rank %d round %d: delivery %+v is not what rank %d handed over", me, r, got, prev)
					}
					if &got.F[0] != &sent[prev][r].F[0] || &got.F32[0] != &sent[prev][r].F32[0] {
						t.Errorf("rank %d round %d: the payload was copied on the way", me, r)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("hand-over ring failed: %v", err)
			}
			for rank := range sent {
				for r, m := range sent[rank] {
					if !same(m, payload(rank, r)) {
						t.Fatalf("rank %d round %d: the sender's slices were written: %+v", rank, r, m)
					}
				}
			}
			if tc.plan != nil && tc.plan.Corrupt > 0 && w.Stats().Faults.Corrupts == 0 {
				t.Error("the corrupt plan injected no corruption")
			}
		})
	}
}
