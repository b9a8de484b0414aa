package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/broker"
	"gasf/internal/core"
	"gasf/internal/federate"
	"gasf/internal/flowgap"
	"gasf/internal/intern"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Config parameterizes a Server. The zero value listens on an ephemeral
// loopback port with default engine options.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Engine configures the group-aware engine deployed per source
	// (algorithm, cuts, output strategy) and the shard runtime knobs.
	Engine core.Options
	// SubscriberQueue bounds each subscriber's send queue, in
	// deliveries: how many released transmissions may wait for the
	// session's writer before the slow-consumer policy applies, exactly
	// as on the embedded transport. 0 means 256. A session may request
	// its own depth in the hello, clamped to MaxSubscriberQueue.
	SubscriberQueue int
	// MaxSubscriberQueue caps the per-session queue depth, in
	// deliveries, a subscriber may request (memory protection); 0 means
	// 65536.
	MaxSubscriberQueue int
	// Policy selects the slow-consumer policy (block, drop or degrade).
	Policy broker.Policy
	// Degrade tunes the per-subscriber degrade controller used by
	// PolicyDegrade (watermarks, step, cooldown, restore hysteresis);
	// zero values take the adapt.Governor defaults. Ignored under other
	// policies.
	Degrade adapt.GovernorConfig
	// SubscriberSendBuffer, when positive, pins each subscriber
	// connection's kernel send buffer to roughly this many bytes (and
	// disables its autotuning). By default the kernel absorbs a large
	// backlog for a slow consumer before writes block, which delays the
	// slow-consumer policy — the delivery queue only backs up once TCP
	// backpressure reaches the write loop. A bounded buffer makes a
	// lagging consumer visible to the policy promptly, at the cost of
	// burst-absorption headroom. 0 keeps the OS default.
	SubscriberSendBuffer int
	// EvictAfterDrops, under PolicyDrop, evicts a subscriber once this
	// many of its deliveries have been dropped: the session ends with a
	// typed eviction notice (an error frame the client surfaces as
	// ErrEvicted) instead of thinning silently forever. 0 disables
	// drop-count eviction.
	EvictAfterDrops int
	// OnSourceGap, when set, is invoked once per flow-gap expiry — a
	// source closed because it went silent past SourceTimeout — with the
	// source name and how long it had been silent. It runs on its own
	// goroutine (the scan loop never waits on it), so it may block, e.g.
	// on a webhook POST. Invocations are counted in
	// gasf_gap_notifications_total.
	OnSourceGap func(source string, silentFor time.Duration)
	// HeartbeatInterval paces server->subscriber heartbeats and the
	// stalled-source scan; 0 means 2s.
	HeartbeatInterval time.Duration
	// SourceTimeout expires a source session that has sent nothing (not
	// even a heartbeat) for this long — the flow-gap detector. 0 means
	// 30s; negative disables expiry.
	SourceTimeout time.Duration
	// ScanInterval is the granularity of the flow-gap wheel: both the
	// cadence of its advance loop and the tick its liveness timestamps
	// are quantized to. Detection is therefore late by at most two
	// intervals past SourceTimeout, never early. 0 derives a default
	// from SourceTimeout (one eighth, clamped between 10ms and 1s);
	// ignored when SourceTimeout is negative.
	ScanInterval time.Duration
	// WriteTimeout bounds one frame write to a subscriber; a subscriber
	// that cannot absorb a frame within it is disconnected. 0 means 10s.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for a connection's hello frame;
	// 0 means 5s.
	HandshakeTimeout time.Duration
	// DrainGrace bounds how long a graceful Shutdown keeps reading from
	// connected publishers (draining tuples already in flight) before
	// cutting them; 0 means 1s.
	DrainGrace time.Duration
	// DataDir, when set, enables durability: every transmission released
	// to at least one live subscriber is appended to a per-source
	// segment log under this directory (internal/seglog) before fan-out,
	// deliveries carry their log offset, and subscribers may resume from
	// a checkpointed offset. Startup recovers the log, truncating any
	// torn tail left by a crash. Empty disables durability.
	DataDir string
	// Seglog tunes the segment log (rotation size, fsync policy); zero
	// values take the seglog defaults. Ignored unless DataDir is set.
	Seglog seglog.Options
	// TelemetrySampleEvery sets the stage-timing sampling period: one in
	// every N hot-path events per stage is timed against the monotonic
	// clock (rounded up to a power of two). 0 means
	// telemetry.DefaultSampleEvery; negative disables stage timing and
	// latency estimation entirely.
	TelemetrySampleEvery int
	// Logger, when set, receives structured session logs. When nil, a
	// non-nil Logf is bridged (one formatted line per event); when both
	// are nil, logging is discarded.
	Logger *slog.Logger
	// Logf, when set and Logger is nil, receives one line per session
	// event. Kept for printf-style sinks such as testing.T.Logf.
	Logf func(format string, args ...any)
	// Federation places the server in a multi-broker topology (core or
	// edge role, peer list). The zero value is the standalone broker.
	Federation FederationConfig
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.SourceTimeout == 0 {
		c.SourceTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = time.Second
	}
	return c
}

// errDraining rejects sessions arriving during shutdown.
var errDraining = errors.New("server is draining")

// sourceSession is one connected publisher: the socket side of a core
// source.
type sourceSession struct {
	// name is interned (Server.names): reconnect generations of the
	// same source share one heap copy instead of retaining one each.
	name   string
	conn   net.Conn
	schema *tuple.Schema
	// src is the core source the session publishes into; its flow-gap
	// entry is the session's liveness.
	src *broker.Source
	// expired marks that the gap detector closed the connection, so the
	// reader attributes its exit correctly.
	expired atomic.Bool
}

// Server is the networked streaming service: the socket transport over
// the broker session core. Create with Start, stop with Shutdown
// (graceful drain) or Close (abort).
type Server struct {
	cfg Config
	ln  net.Listener
	// b is the session core: registry, fan-out, member queues, durable
	// log, governor, eviction and flow-gap expiry. rt, log, tel and wheel
	// are its runtime, durable log (nil unless Config.DataDir), telemetry
	// pipeline (nil when disabled) and flow-gap wheel (nil when
	// SourceTimeout is negative), cached for the socket paths.
	b     *broker.Broker
	rt    *shard.Runtime
	log   *seglog.Log
	tel   *telemetry.Pipeline
	wheel *flowgap.Wheel

	// mu guards the session maps; metrics snapshots take the read side.
	// subs maps the core members of direct subscriber sessions to their
	// sockets (relay members live in their legs), for introspection.
	mu       sync.RWMutex
	sources  map[string]*sourceSession
	subs     map[*broker.Sub]*subscriber
	draining bool

	srcWG  sync.WaitGroup // source session readers
	connWG sync.WaitGroup // every session goroutine
	// stopCtx ends when shutdown begins, interrupting background loops
	// (an edge's leg redials).
	stopCtx context.Context
	stop    context.CancelFunc

	// lg is the resolved session logger.
	lg *slog.Logger

	// Tier 2 of the flow-gap detector (tier 1 is the core's wheel):
	// sketch is the bounded-memory last-heard record over the whole
	// source population, connected or not, used to label reconnects that
	// follow a silence gap. names interns source names across session
	// generations, and expiryLag tracks how far past their deadline
	// expiries fire.
	sketch    *flowgap.Sketch
	names     *intern.Pool
	expiryLag *telemetry.LatencyPair

	// Federation state: topo is the core placement ring (nil on a
	// standalone node), swapped under fedMu by UpdatePeers; fed is the
	// edge's upstream-leg registry (nil unless RoleEdge).
	fedMu sync.RWMutex
	topo  *federate.Topology
	fed   *relayMgr

	ctr      counters
	shutOnce sync.Once
	shutErr  error
}

// Start listens and serves until Shutdown or Close.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var topo *federate.Topology
	switch cfg.Federation.Role {
	case federate.RoleEdge:
		if cfg.Federation.Self == "" {
			return nil, fmt.Errorf("server: edge role needs Federation.Self (the node's name)")
		}
		if len(cfg.Federation.Peers) == 0 {
			return nil, fmt.Errorf("server: edge role needs Federation.Peers (the core tier)")
		}
		if cfg.DataDir != "" {
			// Durability lives at the cores, which own the sources and
			// their logs; an edge log would hold nothing.
			return nil, fmt.Errorf("server: edge role does not take a data dir (cores own the durable logs)")
		}
		t, err := federate.NewTopology(cfg.Federation.Peers)
		if err != nil {
			return nil, err
		}
		topo = t
	case federate.RoleCore:
		if len(cfg.Federation.Peers) > 0 {
			t, err := federate.NewTopology(cfg.Federation.Peers)
			if err != nil {
				return nil, err
			}
			topo = t
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	b, err := broker.New(broker.Config{
		Engine:             cfg.Engine,
		SubscriberQueue:    cfg.SubscriberQueue,
		MaxSubscriberQueue: cfg.MaxSubscriberQueue,
		Policy:             cfg.Policy,
		// The writer's WriteTimeout disconnects a subscriber that stops
		// absorbing frames, which releases a blocked send through the
		// departure; no second deadline on the queue.
		EvictTimeout:         -1,
		EvictAfterDrops:      cfg.EvictAfterDrops,
		Degrade:              cfg.Degrade,
		SourceTimeout:        max(cfg.SourceTimeout, 0),
		ScanInterval:         cfg.ScanInterval,
		DataDir:              cfg.DataDir,
		Seglog:               cfg.Seglog,
		TelemetrySampleEvery: cfg.TelemetrySampleEvery,
		Logger:               cfg.resolveLogger(),
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		b:       b,
		rt:      b.Runtime(),
		log:     b.Log(),
		tel:     b.Telemetry(),
		wheel:   b.Wheel(),
		sources: make(map[string]*sourceSession),
		subs:    make(map[*broker.Sub]*subscriber),
		lg:      b.Config().Logger,
		names:   intern.New(0),
		topo:    topo,
	}
	s.stopCtx, s.stop = context.WithCancel(context.Background())
	if cfg.Federation.Role == federate.RoleEdge {
		s.fed = newRelayMgr(s)
	}
	if s.wheel != nil {
		s.sketch = flowgap.NewSketch(gapSketchCells)
		s.expiryLag = telemetry.NewLatencyPair()
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	s.lg.Info("listening",
		"addr", ln.Addr().String(),
		"policy", cfg.Policy.String(),
		"heartbeat", cfg.HeartbeatInterval,
		"source_timeout", cfg.SourceTimeout,
		"scan_interval", b.Config().ScanInterval,
		"telemetry_sample", s.tel.SampleEvery())
	return s, nil
}

// Telemetry exposes the stage-timing pipeline (nil when disabled).
func (s *Server) Telemetry() *telemetry.Pipeline { return s.tel }

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Runtime exposes the shard runtime for metrics.
func (s *Server) Runtime() *shard.Runtime { return s.rt }

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// gapSketchCells sizes the tier-2 silence sketch: 2^18 cells x 8 bytes
// = 2MiB fixed, ~40% occupancy at a 100k-name population (see the
// flowgap property test for the occupancy/error trade-off) and never
// growing past it — larger populations degrade detection gracefully
// via oldest-first eviction rather than growing memory.
const gapSketchCells = 1 << 18

// expireSource is a session's flow-gap expiry hook (runs on the core's
// wheel loop, outside every lock): a publisher that neither streams nor
// heartbeats within SourceTimeout is presumed dead. Closing the
// connection unblocks the session reader, which retires the source, so
// its subscribers see a clean end instead of silence.
func (s *Server) expireSource(src *sourceSession, lag time.Duration) {
	src.expired.Store(true)
	s.expiryLag.Observe(lag)
	s.lg.Warn("source expired", "source", src.name, "silent_for", s.cfg.SourceTimeout, "lag", lag)
	if s.cfg.OnSourceGap != nil {
		// Deadman notification, off the scan loop: the hook may block on
		// external delivery (webhook, pager) without stalling detection.
		s.ctr.gapNotifications.Add(1)
		go s.cfg.OnSourceGap(src.name, s.cfg.SourceTimeout+lag)
	}
	src.conn.Close()
}

// handleConn performs the handshake and dispatches the session.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	kind, payload, err := ReadFrame(conn)
	if err != nil {
		s.reject(conn, fmt.Errorf("reading hello: %w", err))
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch kind {
	case FrameSourceHello:
		s.serveSource(conn, payload)
	case FrameSubHello:
		s.serveSubscriber(conn, payload)
	default:
		s.reject(conn, fmt.Errorf("connection opened with frame kind %d, want a hello", kind))
	}
}

// reject answers a failed handshake with an error frame and closes.
func (s *Server) reject(conn net.Conn, err error) {
	s.ctr.handshakeRejects.Add(1)
	s.lg.Warn("handshake rejected", "remote", conn.RemoteAddr().String(), "err", err)
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = WriteFrame(conn, FrameError, []byte(err.Error()))
	conn.Close()
}

// serveSource runs a publisher session: open a core source, stream its
// tuples into the shard runtime, and on any exit (goodbye, disconnect,
// expiry, protocol error) retire the source — flush the tail to its
// subscribers, end their streams, release the name.
func (s *Server) serveSource(conn net.Conn, hello []byte) {
	name, schema, err := DecodeSourceHello(hello)
	if err != nil {
		s.reject(conn, err)
		return
	}
	// Interning shares one heap copy of the name across reconnect
	// generations and with the long-lived registries keyed by it.
	name = s.names.Intern(name)

	if s.fed != nil {
		// Edges hold no sources; point the publisher at the owner.
		if owner, ok := s.ownerOf(name); ok {
			s.reject(conn, fmt.Errorf("edge node: source %q is owned by core %q at %s", name, owner.Name, owner.Addr))
		} else {
			s.reject(conn, fmt.Errorf("edge node: publishers connect to a core, not an edge"))
		}
		return
	}
	if self := s.cfg.Federation.Self; self != "" && s.cfg.Federation.Role == federate.RoleCore {
		// Placement enforcement: a core with a configured topology only
		// accepts the sources the ring assigns to it, so a misrouted
		// publisher learns the owner instead of silently splitting a
		// source across cores.
		if owner, ok := s.ownerOf(name); ok && owner.Name != self {
			s.reject(conn, fmt.Errorf("source %q is owned by core %q at %s (this is %q)", name, owner.Name, owner.Addr, self))
			return
		}
	}

	src := &sourceSession{name: name, conn: conn, schema: schema}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(conn, errDraining)
		return
	}
	if s.wheel != nil {
		// Tier 2 first: was this name silent past the timeout since we
		// last heard it (possibly sessions ago)? That is a gap-recovered
		// reconnect — the sketch remembers populations far larger than
		// the connected set, in bounded memory.
		now := s.wheel.NowTick()
		if last, known := s.sketch.LastSeen(name); known && now-last >= s.wheel.TimeoutTicks() {
			s.ctr.gapReconnects.Add(1)
			s.lg.Info("source returned after flow gap", "source", name,
				"silent_for", time.Duration(now-last)*s.wheel.Tick())
		}
		s.sketch.Record(name, now)
	}
	src.src, err = s.b.OpenSourceExpiring(name, schema, func(lag time.Duration) { s.expireSource(src, lag) })
	if err != nil {
		s.mu.Unlock()
		s.reject(conn, err)
		return
	}
	s.sources[name] = src
	s.srcWG.Add(1)
	s.mu.Unlock()

	s.ctr.sourcesAccepted.Add(1)
	s.lg.Info("source connected", "source", name, "remote", conn.RemoteAddr().String(), "schema", schema)
	if err := WriteFrame(conn, FrameHelloOK, s.sourceResumeHint(name, schema)); err != nil {
		s.finishSource(src, fmt.Errorf("hello-ok: %w", err))
		return
	}
	s.readSource(src)
}

// resumeHintTail bounds how many log-tail records the source hello-ok
// hint scans for the highest logged tuple sequence. Reconnecting
// publishers keep unacked windows far larger than this, but every tuple
// past the last Sync barrier that actually reached the log lands in the
// tail the publisher republishes next — so the maximum over a bounded
// tail is the maximum that matters.
const resumeHintTail = 32

// sourceResumeHint builds the source hello-ok payload: on a durable
// server it names the highest tuple sequence found near the log head for
// this source, so a reconnecting publisher can trim its republish window
// to the tuples the log never saw instead of double-logging the overlap.
// Best-effort: when the tail does not decode under this session's schema
// (the source came back shaped differently), no hint is sent — a wrong
// hint could silently drop tuples, a missing one only risks duplicates.
func (s *Server) sourceResumeHint(name string, schema *tuple.Schema) []byte {
	if s.log == nil {
		return nil
	}
	head := s.log.NextOffset(name)
	from := uint64(0)
	if head > resumeHintTail {
		from = head - resumeHintTail
	}
	maxSeq := int64(-1)
	err := s.log.Read(name, from, head, func(_ uint64, payload []byte) error {
		t, _, _, err := wire.DecodeTransmission(schema, payload)
		if err != nil {
			return err
		}
		if int64(t.Seq) > maxSeq {
			maxSeq = int64(t.Seq)
		}
		return nil
	})
	if err != nil && head > 0 {
		return nil
	}
	return EncodeSourceHelloOK(maxSeq, true)
}

// Ingest read-buffer sizing: every session starts on a small buffer —
// at scale most sources are idle heartbeaters, and a 32KiB buffer per
// idle session is the difference between ~3GiB and ~50MiB at 100k
// sources — and upgrades to the streaming size on its first tuple
// frame, when it has proven it is a streamer.
const (
	idleReadBuf   = 512
	streamReadBuf = 32 << 10
)

// readSource is the publisher read loop. Reads are buffered and the
// payload buffer is recycled across frames (decoded tuples copy what they
// keep), so steady-state ingest does not allocate per frame. Ingest is
// opportunistically batched: tuples whose frames are already sitting in
// the read buffer are submitted to the shard ring together, one
// synchronization per run, while a lone tuple still submits immediately —
// batching never waits for bytes that have not arrived.
func (s *Server) readSource(src *sourceSession) {
	var lastTS time.Time
	var readErr error
	br := bufio.NewReaderSize(src.conn, idleReadBuf)
	upgraded := false
	var payloadBuf []byte
	flushN := s.cfg.Engine.FlushBatch
	if flushN <= 0 {
		flushN = shard.DefaultFlushBatch
	}
	batch := make([]*tuple.Tuple, 0, flushN)
	// frameBuffered reports whether a whole frame — header and payload —
	// is already sitting in the read buffer. A buffered header alone is
	// not enough: continuing to accumulate would park staged tuples
	// behind a blocking read for a payload that may lag arbitrarily. The
	// Buffered() guard must come first — bufio's Peek otherwise BLOCKS
	// reading the connection for the missing header bytes, which would
	// hold the staged batch across an idle gap and cost a full pacing
	// interval of delivery latency.
	frameBuffered := func() bool {
		if br.Buffered() < frameHeaderLen {
			return false
		}
		hdr, err := br.Peek(frameHeaderLen)
		if err != nil {
			return false
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		return uint32(br.Buffered()-frameHeaderLen) >= n
	}
	// submit hands the staged run to the core source, which stamps
	// liveness once per run (not per frame) and holds the busy flag
	// across a submit parked on a full shard ring, so the flow-gap wheel
	// never mistakes that stall for a dead publisher.
	submit := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := src.src.PublishBatch(context.Background(), batch)
		if err == nil {
			s.ctr.tuplesIn.Add(uint64(len(batch)))
		}
		clear(batch)
		batch = batch[:0]
		return err
	}
	for {
		kind, payload, err := ReadFrameInto(br, payloadBuf)
		payloadBuf = payload[:cap(payload)]
		if err != nil {
			// EOF, gap expiry and the drain deadline are orderly ends of
			// stream, not failures.
			if !errors.Is(err, io.EOF) && !src.expired.Load() && !s.isDraining() {
				readErr = err
			}
			break
		}
		s.ctr.bytesIn.Add(uint64(frameHeaderLen + len(payload)))
		switch kind {
		case FrameTuple:
			if !upgraded {
				// First tuple: this session is a streamer, not an idle
				// heartbeater — move it to the full-size read buffer.
				// Bytes already buffered (frames behind this one) are
				// spliced ahead of the connection so nothing is lost.
				upgraded = true
				if n := br.Buffered(); n > 0 {
					pending, _ := br.Peek(n)
					br = bufio.NewReaderSize(
						io.MultiReader(bytes.NewReader(append([]byte(nil), pending...)), src.conn),
						streamReadBuf)
				} else {
					br = bufio.NewReaderSize(src.conn, streamReadBuf)
				}
			}
			var t *tuple.Tuple
			var n int
			var err error
			if s.tel.Sample(telemetry.StageIngestDecode) {
				t0 := time.Now()
				t, n, err = wire.DecodeTuple(src.schema, payload)
				s.tel.Observe(telemetry.StageIngestDecode, time.Since(t0))
			} else {
				t, n, err = wire.DecodeTuple(src.schema, payload)
			}
			if err == nil && n != len(payload) {
				err = fmt.Errorf("tuple frame carries %d trailing bytes", len(payload)-n)
			}
			if err == nil && !t.TS.After(lastTS) {
				err = fmt.Errorf("tuple %d timestamp %v not after previous %v", t.Seq, t.TS, lastTS)
			}
			if err != nil {
				readErr = err
				s.sendError(src.conn, err)
				break
			}
			lastTS = t.TS
			batch = append(batch, t)
			if len(batch) < flushN && frameBuffered() {
				// Another whole frame is already buffered: keep
				// accumulating.
				continue
			}
			if err := submit(); err != nil {
				readErr = err
				break
			}
			continue
		case FrameHeartbeat:
			src.src.Touch()
			s.ctr.heartbeatsIn.Add(1)
			continue
		case FramePing:
			// Publish barrier: everything read before the ping goes to the
			// shard ring before the pong leaves, so a client that has seen
			// the pong knows later membership changes order after those
			// tuples.
			src.src.Touch()
			if err := submit(); err != nil {
				readErr = err
				break
			}
			// The pong write closes the barrier; it is covered by the busy
			// flag like the submit so an outstanding ping can never expire
			// the source mid-barrier.
			src.src.SetBusy(true)
			src.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			err := WriteFrame(src.conn, FramePong, payload)
			src.src.SetBusy(false)
			if err != nil {
				readErr = fmt.Errorf("answering ping: %w", err)
				break
			}
			continue
		case FrameGoodbye:
		default:
			readErr = fmt.Errorf("unexpected frame kind %d from source", kind)
			s.sendError(src.conn, readErr)
		}
		break
	}
	// Submit the staged tail (tuples validated before the exit) ahead of
	// the finish marker, so a goodbye or disconnect never drops them.
	if err := submit(); err != nil && readErr == nil {
		readErr = err
	}
	s.finishSource(src, readErr)
}

// sendError best-effort ships a fatal error to the peer.
func (s *Server) sendError(conn net.Conn, err error) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = WriteFrame(conn, FrameError, []byte(err.Error()))
}

// finishSource ends a publisher session: retire the core source
// (flushing its final outputs to the subscribers, ending their streams,
// releasing the name for reuse) and forget the session.
func (s *Server) finishSource(src *sourceSession, cause error) {
	defer s.srcWG.Done()
	src.conn.Close()
	if s.wheel != nil {
		// Tier-2 record of when this name was last heard, so a future
		// reconnect can be classified against the silence threshold.
		s.sketch.Record(src.name, s.wheel.NowTick())
	}
	switch {
	case src.expired.Load():
		s.ctr.closedFlowGap.Add(1)
	case s.isDraining():
		s.ctr.closedDrain.Add(1)
	case cause != nil:
		s.ctr.closedDisconnect.Add(1)
	default:
		s.ctr.closedFinished.Add(1)
	}
	if cause != nil {
		s.ctr.sourcesFailed.Add(1)
		s.lg.Warn("source failed", "source", src.name, "err", cause)
	} else {
		s.lg.Info("source finished", "source", src.name)
	}
	// The session is accounted finished before its subscribers' streams
	// end, so a client that has seen its goodbye reads settled counters.
	// A publisher reconnecting under the name meanwhile is rejected by
	// the core (retryable) until the retirement released it.
	s.mu.Lock()
	if s.sources[src.name] == src {
		delete(s.sources, src.name)
	}
	s.mu.Unlock()
	s.ctr.sourcesFinished.Add(1)
	if err := src.src.Retire(); err != nil {
		s.lg.Warn("retiring source", "source", src.name, "err", err)
	}
}

// serveSubscriber runs a subscriber session: join the source's live
// group through the core, then stream transmissions until the subscriber
// leaves or its source finishes.
func (s *Server) serveSubscriber(conn net.Conn, hello []byte) {
	h, err := DecodeSubHello(hello)
	if err != nil {
		s.reject(conn, err)
		return
	}
	spec, err := quality.Parse(h.Spec)
	if err != nil {
		s.reject(conn, err)
		return
	}
	if s.fed != nil {
		s.serveEdgeSubscriber(conn, h, spec)
		return
	}
	if s.isDraining() {
		s.reject(conn, errDraining)
		return
	}
	m, err := s.b.Subscribe(context.Background(), h.App, h.Source, spec, broker.SubOptions{
		Queue:      h.Queue,
		Resume:     h.Resume,
		ResumeFrom: h.ResumeFrom,
	})
	if err != nil {
		s.reject(conn, err)
		return
	}
	s.pinSendBuffer(conn)
	sub := newSubscriber(s, m, conn)
	if h.Relay {
		// An edge's upstream leg: the same session in every way, but
		// tagged with the edge it fans out on for metrics and debug.
		sub.relayEdge = h.RelayEdge
		s.ctr.fedRelayLegsIn.Add(1)
	}
	s.mu.Lock()
	s.subs[m] = sub
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, m)
		s.mu.Unlock()
	}()
	schemaPayload, err := EncodeSchema(m.Schema())
	if err == nil {
		err = WriteFrame(conn, FrameHelloOK, schemaPayload)
	}
	if err != nil {
		s.removeSubscriber(sub)
		conn.Close()
		return
	}
	s.ctr.subscribersAccepted.Add(1)
	s.lg.Info("subscriber joined", "app", h.App, "source", h.Source, "spec", spec)
	s.connWG.Add(1)
	go sub.writeLoop()
	sub.readLoop() // returns when the client leaves or the session ends
}

// pinSendBuffer applies Config.SubscriberSendBuffer to a subscriber
// connection.
func (s *Server) pinSendBuffer(conn net.Conn) {
	if s.cfg.SubscriberSendBuffer > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(s.cfg.SubscriberSendBuffer)
		}
	}
}

// removeSubscriber detaches a departing subscriber through the core's
// member close: its queue stops accepting deliveries and is returned to
// the pool, and its filter leaves the live group (or, on an edge, its
// relay leg refcounts down).
func (s *Server) removeSubscriber(sub *subscriber) {
	if err := sub.m.Close(context.Background()); err != nil {
		s.lg.Warn("detaching subscriber", "app", sub.m.App(), "source", sub.m.Source(), "err", err)
	}
	s.lg.Info("subscriber left", "app", sub.m.App(), "source", sub.m.Source(), "dropped", sub.m.Dropped())
}

// Shutdown gracefully drains the server: stop accepting, close publisher
// sessions, flush every engine and subscriber queue, then close the
// subscriber sessions with a goodbye. The context bounds the drain; on
// expiry the remaining work is aborted.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() { s.shutErr = s.shutdown(ctx) })
	return s.shutErr
}

// Close aborts the server without draining.
func (s *Server) Close() error {
	s.shutOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.shutErr = s.shutdown(ctx)
	})
	return s.shutErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.lg.Info("shutting down")
	s.mu.Lock()
	s.draining = true
	srcs := make([]*sourceSession, 0, len(s.sources))
	for _, src := range s.sources {
		srcs = append(srcs, src)
	}
	s.mu.Unlock()
	s.ln.Close()
	s.stop()
	if s.fed != nil {
		// Tear down the upstream legs first: every local member's stream
		// then finishes with the drain-tagged goodbye, and the cores
		// clean their relay sessions on disconnect.
		s.fed.shutdown()
	}

	// Each publisher gets a drain-tagged goodbye and a read deadline: its
	// reader drains the tuples already in flight, then goes down the
	// normal finish path — engine Finish, tail flush, subscriber goodbye.
	// The tag lets a reconnect-aware publisher distinguish this forced
	// end from its own Finish and redial a restarted server.
	for _, src := range srcs {
		src.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		_ = WriteFrame(src.conn, FrameGoodbye, goodbyeDrainPayload)
		src.conn.SetReadDeadline(time.Now().Add(s.cfg.DrainGrace))
	}

	done := make(chan struct{})
	go func() { s.srcWG.Wait(); close(done) }()
	aborted := false
	select {
	case <-done:
	case <-ctx.Done():
		// Hard abort: release the core so blocked feeds and controls
		// unwind, and cut the connections under the readers.
		aborted = true
		s.b.Abort()
		for _, src := range srcs {
			src.conn.Close()
		}
		<-done
	}

	// All feeders have stopped; the core drains the runtime, seals the
	// log and ends every remaining subscriber stream (an aborted drain
	// leaves them instead, and their writers close the connections).
	drainErr := s.b.Close(ctx)

	waitDone := make(chan struct{})
	go func() { s.connWG.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-ctx.Done():
		if !aborted {
			drainErr = errors.Join(drainErr, ctx.Err())
		}
	}
	if aborted {
		// The abort cancelled the runtime on purpose; surfacing the
		// cancellation itself as an error would make every Close() fail.
		return broker.StripCtxErrs(drainErr)
	}
	if drainErr != nil {
		return drainErr
	}
	s.lg.Info("drained")
	return nil
}
