package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"time"

	"gasf/internal/broker"
	"gasf/internal/telemetry"
)

// subWriteBatchBytes bounds how many frame bytes one egress cycle
// coalesces into a single vectored write, so one write deadline always
// covers a bounded burst.
const subWriteBatchBytes = 32 << 10

// subscriber is one connected application session: the socket side of
// a core member. The core's sink (or, on an edge, the relay leg) fills
// the member queue with shared frames; a writer goroutine owns the
// connection's write side and drains the queue into vectored writes.
type subscriber struct {
	s    *Server
	m    *broker.Sub
	conn net.Conn

	// writerDone is closed when writeLoop exits; the read side waits on
	// it before writing the departure ack, so the two goroutines never
	// interleave writes on the connection.
	writerDone chan struct{}

	// leg, on an edge node, is the upstream relay leg this session fans
	// out from. relayEdge, on a core, names the edge an upstream leg
	// session belongs to (empty for direct subscribers).
	leg       *relayLeg
	relayEdge string
}

func newSubscriber(s *Server, m *broker.Sub, conn net.Conn) *subscriber {
	return &subscriber{s: s, m: m, conn: conn, writerDone: make(chan struct{})}
}

// evictPrefix tags slow-consumer eviction notices inside error frames,
// so clients can surface a typed ErrEvicted instead of a generic remote
// error.
const evictPrefix = "evicted: "

// egress is the writer's staging area for one vectored write: the iovec
// list handed to net.Buffers and the frames behind it, released once the
// kernel has the bytes.
type egress struct {
	bufs   net.Buffers
	frames []*broker.Frame
	bytes  int
}

// stage appends a queued frame to the pending vectored write (the frame
// reference is now held by the egress staging until released).
func (e *egress) stage(fr *broker.Frame) {
	b := fr.Bytes()
	e.bufs = append(e.bufs, b)
	e.frames = append(e.frames, fr)
	e.bytes += len(b)
}

// flush ships the staged frames with one vectored write (net.Buffers
// issues writev on TCP, chunking the iovec list as needed) and releases
// every staged reference — the bytes are with the kernel or lost to the
// error either way.
func (e *egress) flush(sub *subscriber) error {
	if len(e.frames) == 0 {
		return nil
	}
	tel := sub.s.tel
	var t0 time.Time
	if tel.Sample(telemetry.StageEgressWrite) {
		t0 = time.Now()
	}
	// WriteTo consumes the slice it is called on (advancing the header
	// past written buffers), so it runs on a copy: e.bufs keeps the
	// original header and its capacity survives the reset below.
	bb := e.bufs
	n, err := bb.WriteTo(sub.conn)
	sub.s.ctr.bytesOut.Add(uint64(n))
	if !t0.IsZero() {
		tel.Observe(telemetry.StageEgressWrite, time.Since(t0))
	}
	if tel != nil && err == nil {
		// The egress write is the networked delivery point: one clock
		// read covers the whole vectored write.
		sub.m.Delivered(time.Now().UnixNano(), e.frames...)
	}
	for _, fr := range e.frames {
		fr.Release()
	}
	clear(e.frames)
	clear(e.bufs)
	e.frames = e.frames[:0]
	e.bufs = e.bufs[:0]
	e.bytes = 0
	return err
}

// writeLoop owns the connection's write side: it streams queued frames —
// coalescing whatever is already queued into one vectored write instead
// of one syscall (or one buffer copy) per frame — heartbeats when idle,
// announces QoS changes, and finishes with a goodbye when the stream
// ends. On a client-initiated departure (the member left through
// readLoop) it exits without closing the connection: the read side
// still owes the client its departure ack.
func (sub *subscriber) writeLoop() {
	defer sub.s.connWG.Done()
	defer close(sub.writerDone)
	s, m := sub.s, sub.m
	fail := func() {
		s.removeSubscriber(sub)
		sub.conn.Close()
	}
	if err := sub.replay(); err != nil {
		if !errors.Is(err, broker.ErrReplayAborted) {
			s.lg.Warn("replay failed", "source", m.Source(), "app", m.App(), "err", err)
			fail()
		}
		return
	}
	var e egress
	// drain stages every frame already queued, flushing whenever a burst
	// fills; it reports whether the queue was emptied without an error.
	drain := func() error {
		for {
			select {
			case fr := <-m.Frames():
				e.stage(fr)
				if e.bytes >= subWriteBatchBytes {
					if err := e.flush(sub); err != nil {
						return err
					}
				}
			default:
				return e.flush(sub)
			}
		}
	}
	goodbye := func() {
		// A stream end during server drain is tagged so reconnect-aware
		// subscribers resume against a restarted server instead of
		// treating the end as the source finishing.
		var payload []byte
		if s.isDraining() {
			payload = goodbyeDrainPayload
		}
		sub.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		_ = WriteFrame(sub.conn, FrameGoodbye, payload)
		s.removeSubscriber(sub)
		sub.conn.Close()
	}
	hb := time.NewTicker(s.cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		select {
		case <-m.Done():
			if reason := m.EvictReason(); reason != "" {
				// Best-effort notice, then disconnect: the reason rides an
				// error frame so the client sees a typed eviction, not a
				// bare EOF.
				sub.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				_ = WriteFrame(sub.conn, FrameError, []byte(evictPrefix+reason))
				fail()
			} else if s.isDraining() {
				// An aborted drain left every member; end the session here,
				// since no client goodbye is coming to.
				goodbye()
			}
			return
		case fr := <-m.Frames():
			sub.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			e.stage(fr)
		coalesce:
			// Fold frames already queued into this vectored write,
			// bounded so the deadline covers a bounded burst.
			for e.bytes < subWriteBatchBytes {
				select {
				case more := <-m.Frames():
					e.stage(more)
				default:
					break coalesce
				}
			}
			if err := e.flush(sub); err != nil {
				fail()
				return
			}
		case <-m.Ended():
			// The source's final flush is queued: ship it, then end.
			sub.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := drain(); err != nil {
				fail()
				return
			}
			goodbye()
			return
		case <-m.QoSChanged():
			sub.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := WriteFrame(sub.conn, FrameQoS, EncodeQoS(m.QoS())); err != nil {
				fail()
				return
			}
		case <-hb.C:
			sub.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := WriteFrame(sub.conn, FrameHeartbeat, nil); err != nil {
				fail()
				return
			}
		}
	}
}

// replay streams the member's history from the durable log, each record
// as an offset-bearing transmission frame, before any live frame. The log
// holds exactly the bytes the live fan-out delivered, so the replayed
// stream is byte-identical to what the app would have received live.
// Live frames released meanwhile queue up in the member queue (they all
// carry offsets at or above the splice fence) and drain afterwards in
// order, so the client sees one seamless, gapless stream.
func (sub *subscriber) replay() error {
	if resume, _, _ := sub.m.Resume(); !resume {
		return nil
	}
	var buf []byte
	for {
		off, payload, err := sub.m.NextReplay()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		buf = broker.BeginFrame(buf[:0], FrameTransmissionOff)
		buf = binary.LittleEndian.AppendUint64(buf, off)
		buf = broker.EndFrame(append(buf, payload...))
		sub.conn.SetWriteDeadline(time.Now().Add(sub.s.cfg.WriteTimeout))
		n, err := sub.conn.Write(buf)
		sub.s.ctr.bytesOut.Add(uint64(n))
		if err != nil {
			return err
		}
		sub.s.ctr.replayRecordsOut.Add(1)
	}
	sub.s.ctr.replaysServed.Add(1)
	return nil
}

// readLoop consumes the client's side of the session until it leaves
// (goodbye or disconnect); client heartbeats are permitted and ignored.
// A client-initiated departure is acknowledged with a final goodbye
// written only after the filter has left the live group and the writer
// has stopped — a client that waits for the ack (Leave) knows its
// removal has been applied at a tuple boundary.
func (sub *subscriber) readLoop() {
	br := bufio.NewReaderSize(sub.conn, 4<<10)
	var buf []byte
	for {
		kind, b, err := ReadFrameInto(br, buf)
		if err != nil {
			break
		}
		buf = b
		if kind == FrameGoodbye {
			break
		}
	}
	select {
	case <-sub.m.Done():
		// The session already ended server-side (source finished,
		// eviction or shutdown).
	default:
		sub.s.removeSubscriber(sub)
		<-sub.writerDone
		sub.conn.SetWriteDeadline(time.Now().Add(sub.s.cfg.WriteTimeout))
		_ = WriteFrame(sub.conn, FrameGoodbye, nil)
	}
	sub.conn.Close()
}
