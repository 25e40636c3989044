package cluster

import (
	"math"
	"time"
)

// packet is the wire unit. In clean mode only msg is meaningful; in chaos
// (lossy) mode seq orders the link and sum guards the payload.
type packet struct {
	msg Msg
	seq uint64
	sum uint64
}

// Retransmission backoff: exponential from ackTimeoutBase, capped at
// ackTimeoutCap — "capped exponential backoff" per the fault design.
const (
	ackTimeoutBase = 500 * time.Microsecond
	ackTimeoutCap  = 8 * time.Millisecond
)

func backoffFor(attempt int) time.Duration {
	d := ackTimeoutBase << uint(attempt)
	if d > ackTimeoutCap || d <= 0 {
		d = ackTimeoutCap
	}
	return d
}

// Send delivers a message to dst. Payload slices are copied, so the sender
// may reuse its buffers immediately (MPI semantics); HandOver is the
// variant that skips the copy. Send is eager: it only blocks when the
// link's buffer is full, and then honors the world timeout and
// peer-failure signals instead of hanging.
func (c *Comm) Send(dst, tag int, f []float64, ints []int) error {
	m := Msg{Src: c.rank, Tag: tag}
	if f != nil {
		m.F = append([]float64(nil), f...)
	}
	if ints != nil {
		m.I = append([]int(nil), ints...)
	}
	return c.sendMsg(dst, tag, m)
}

// Send32 is Send with a single-precision float payload — the wire path of
// the mixed-precision distributed drivers. Semantics match Send exactly
// (copied payloads, eager buffering, timeout/failure handling); in chaos
// mode the F32 payload is covered by the same checksum/retransmit
// machinery as F.
func (c *Comm) Send32(dst, tag int, f []float32, ints []int) error {
	m := Msg{Src: c.rank, Tag: tag}
	if f != nil {
		m.F32 = append([]float32(nil), f...)
	}
	if ints != nil {
		m.I = append([]int(nil), ints...)
	}
	return c.sendMsg(dst, tag, m)
}

// HandOver delivers m to dst on tag m.Tag without copying its payloads:
// dst receives m.F, m.F32 and m.I as they are, and the sender must not
// write them again. Everything else is Send's: eager buffering,
// timeout/failure handling and, in chaos mode, the checksum and
// retransmission of the same slices. The fabric itself never writes a
// payload (corruptPacket flips its bit in a copy), so only the receiver
// may.
func (c *Comm) HandOver(dst int, m Msg) error {
	m.Src = c.rank
	return c.sendMsg(dst, m.Tag, m)
}

// sendMsg is the shared delivery core of Send, Send32 and HandOver.
func (c *Comm) sendMsg(dst, tag int, m Msg) error {
	w := c.world
	if dst < 0 || dst >= w.size {
		return &OpError{Rank: c.rank, Op: "send", Peer: dst, Tag: tag, Err: ErrInvalidRank}
	}
	p := &w.prog[c.rank]
	p.sentTag.Store(int64(tag))
	p.sentPeer.Store(int64(dst))
	p.ops.Add(1)
	p.sends.Add(1)

	var pkt *packet
	var ch chan *packet
	if w.lossy {
		seq := w.sendSeq[c.rank][dst]
		w.sendSeq[c.rank][dst]++
		pkt = &packet{msg: m, seq: seq, sum: msgChecksum(m)}
		ch = w.out[c.rank][dst] // the link worker takes over delivery
	} else {
		pkt = &packet{msg: m}
		ch = w.data[c.rank][dst]
	}

	select {
	case ch <- pkt: // fast path: buffer has room
		return nil
	default:
	}
	timerC, stopTimer := w.opTimer()
	defer stopTimer()
	select {
	case ch <- pkt:
		return nil
	case <-w.failed[dst]:
		return &OpError{Rank: c.rank, Op: "send", Peer: dst, Tag: tag, Err: ErrRankFailed}
	case <-w.abort:
		return &OpError{Rank: c.rank, Op: "send", Peer: dst, Tag: tag, Err: ErrAborted}
	case <-timerC:
		mTimeouts.Load().Inc()
		return &OpError{Rank: c.rank, Op: "send", Peer: dst, Tag: tag, Err: ErrTimeout}
	}
}

// Recv blocks for the next message from src and verifies its tag. It
// returns ErrTimeout when the world timeout elapses, ErrRankFailed when
// src's goroutine has died with the link drained, and ErrTagMismatch on a
// protocol violation. In chaos mode it additionally discards corrupt
// packets (forcing a retransmission), deduplicates by sequence number and
// acknowledges delivery.
func (c *Comm) Recv(src, tag int) (Msg, error) {
	w := c.world
	if src < 0 || src >= w.size {
		return Msg{}, &OpError{Rank: c.rank, Op: "recv", Peer: src, Tag: tag, Err: ErrInvalidRank}
	}
	timerC, stopTimer := w.opTimer()
	defer stopTimer()
	for {
		pkt, err := c.nextPacket(src, tag, timerC)
		if err != nil {
			return Msg{}, err
		}
		if w.lossy {
			if pkt.sum != msgChecksum(pkt.msg) {
				w.rejects.Add(1)
				mRejects.Load().Inc()
				continue // no ack: the sender retransmits a clean copy
			}
			exp := w.recvSeq[src][c.rank]
			if pkt.seq < exp {
				c.sendAck(src, pkt.seq) // duplicate: re-ack, discard
				continue
			}
			// Stop-and-wait sender ⇒ seq == exp here.
			w.recvSeq[src][c.rank] = exp + 1
			c.sendAck(src, pkt.seq)
		}
		p := &w.prog[c.rank]
		p.recvTag.Store(int64(pkt.msg.Tag))
		p.recvPeer.Store(int64(src))
		p.ops.Add(1)
		if pkt.msg.Tag != tag {
			return Msg{}, &OpError{Rank: c.rank, Op: "recv", Peer: src, Tag: tag, Err: ErrTagMismatch}
		}
		return pkt.msg, nil
	}
}

// nextPacket pulls one packet off the link, preferring queued data over
// failure/abort signals so a dead peer's already-sent messages still
// drain.
func (c *Comm) nextPacket(src, tag int, timerC <-chan time.Time) (*packet, error) {
	w := c.world
	ch := w.data[src][c.rank]
	select {
	case pkt := <-ch:
		return pkt, nil
	default:
	}
	select {
	case pkt := <-ch:
		return pkt, nil
	case <-w.failed[src]:
		select {
		case pkt := <-ch:
			return pkt, nil
		default:
			return nil, &OpError{Rank: c.rank, Op: "recv", Peer: src, Tag: tag, Err: ErrRankFailed}
		}
	case <-w.abort:
		select {
		case pkt := <-ch:
			return pkt, nil
		default:
			return nil, &OpError{Rank: c.rank, Op: "recv", Peer: src, Tag: tag, Err: ErrAborted}
		}
	case <-timerC:
		mTimeouts.Load().Inc()
		return nil, &OpError{Rank: c.rank, Op: "recv", Peer: src, Tag: tag, Err: ErrTimeout}
	}
}

// sendAck posts a cumulative ack for link src→me. Non-blocking: the ack
// channel is generously buffered, and a lost ack only costs a (harmless,
// deduplicated) retransmission.
func (c *Comm) sendAck(src int, seq uint64) {
	select {
	case c.world.acks[src][c.rank] <- seq:
	default:
	}
}

// linkWorker is the chaos-mode delivery engine for one link: it takes
// packets from the outbox in order and runs the stop-and-wait
// transmit/ack/retransmit loop, applying the injector's drop / duplicate
// / delay / corrupt decisions per transmission attempt.
func (w *World) linkWorker(src, dst int) {
	defer w.helpers.Done()
	in := w.opt.Injector
	for {
		var pkt *packet
		select {
		case pkt = <-w.out[src][dst]:
		case <-w.stop:
			return
		}
		for attempt := 0; ; attempt++ {
			if w.isFailed(dst) {
				break // peer dead: drop the message
			}
			act := in.OnTransmit(src, dst, pkt.seq, attempt)
			if act.Delay > 0 && !w.sleep(act.Delay) {
				return
			}
			if !act.Drop {
				send := pkt
				if act.Corrupt {
					send = corruptPacket(pkt)
				}
				if !w.deliver(src, dst, send) {
					return
				}
				if act.Dup {
					// Best-effort second copy; dedup discards it.
					select {
					case w.data[src][dst] <- send:
					default:
					}
				}
			}
			if acked, alive := w.awaitAck(src, dst, pkt.seq, attempt); acked {
				break
			} else if !alive {
				return
			}
			w.resends.Add(1)
			mResends.Load().Inc()
		}
	}
}

// deliver blocks the packet into the data channel; false means the world
// stopped.
func (w *World) deliver(src, dst int, pkt *packet) bool {
	select {
	case w.data[src][dst] <- pkt:
		return true
	case <-w.failed[dst]:
		return true // drop: nobody will read it
	case <-w.stop:
		return false
	}
}

// awaitAck waits one backoff interval for a cumulative ack covering seq.
// Returns acked=true when covered (or the peer died — nothing left to
// wait for), alive=false when the world stopped.
func (w *World) awaitAck(src, dst int, seq uint64, attempt int) (acked, alive bool) {
	t := time.NewTimer(backoffFor(attempt))
	defer t.Stop()
	for {
		select {
		case s := <-w.acks[src][dst]:
			if s >= seq {
				return true, true
			}
		case <-t.C:
			return false, true
		case <-w.failed[dst]:
			return true, true
		case <-w.stop:
			return false, false
		}
	}
}

func (w *World) isFailed(rank int) bool {
	select {
	case <-w.failed[rank]:
		return true
	default:
		return false
	}
}

// sleep waits d interruptibly; false means the world stopped.
func (w *World) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-w.stop:
		return false
	}
}

// msgChecksum hashes tag, source and both payloads (FNV-1a over the raw
// float bits) so in-flight corruption is detected at the receiver.
func msgChecksum(m Msg) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(m.Src))
	mix(uint64(m.Tag))
	mix(uint64(len(m.F)))
	mix(uint64(len(m.F32)))
	mix(uint64(len(m.I)))
	for _, f := range m.F {
		mix(math.Float64bits(f))
	}
	for _, f := range m.F32 {
		mix(uint64(math.Float32bits(f)))
	}
	for _, v := range m.I {
		mix(uint64(v))
	}
	return h
}

// corruptPacket returns a deep copy with one payload bit flipped (the
// original stays intact for retransmission). The checksum is computed
// before the flip, so the receiver rejects the copy.
func corruptPacket(pkt *packet) *packet {
	out := *pkt
	out.msg.F = append([]float64(nil), pkt.msg.F...)
	out.msg.F32 = append([]float32(nil), pkt.msg.F32...)
	out.msg.I = append([]int(nil), pkt.msg.I...)
	switch {
	case len(out.msg.F) > 0:
		i := int(pkt.seq) % len(out.msg.F)
		out.msg.F[i] = math.Float64frombits(math.Float64bits(out.msg.F[i]) ^ (1 << 52))
	case len(out.msg.F32) > 0:
		i := int(pkt.seq) % len(out.msg.F32)
		out.msg.F32[i] = math.Float32frombits(math.Float32bits(out.msg.F32[i]) ^ (1 << 23))
	case len(out.msg.I) > 0:
		i := int(pkt.seq) % len(out.msg.I)
		out.msg.I[i] ^= 1 << 7
	default:
		out.msg.Tag ^= 1 << 5 // no payload: scramble the header
	}
	return &out
}
