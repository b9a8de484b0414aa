package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/broker"
	"gasf/internal/federate"
	"gasf/internal/quality"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// FederationConfig places a server in a multi-broker topology. The
// zero value is the standalone single-node broker, byte-for-byte the
// pre-federation behavior.
//
// Degrade contract behind an edge: the core's governor sees one relay
// member per (edge, app, spec) leg, so every local session sharing a
// leg degrades together — the leg forwards each QoS announcement to all
// of them — and the edge runs no governor of its own.
type FederationConfig struct {
	// Role selects the node's tier: RoleCore owns sources (publishers
	// connect here, engines run here), RoleEdge holds subscriber
	// sessions and opens at most one upstream subscription per
	// (source-owning core, group). RoleSingle is the standalone broker.
	Role federate.Role
	// Self is this node's name in the peer list. Required for edges
	// (upstream legs identify themselves with it); optional for cores,
	// where setting it together with Peers turns on placement
	// enforcement — publishers for sources this core does not own are
	// redirected to the owner.
	Self string
	// Peers is the core tier: every core node, by stable name and
	// address. Placement is consistent hashing of the source name over
	// this set, so every node handed the same peer list computes the
	// same owner for every source. Required for edges.
	Peers []federate.Node
	// DialTimeout bounds one upstream leg dial + handshake; 0 means 5s.
	DialTimeout time.Duration
}

// legKey is the dedup identity of one upstream leg: the source plus
// the group — app and the canonical quality-spec rendering. However
// many local subscribers share the key, the core→edge link carries the
// group's filtered stream exactly once.
type legKey struct {
	source, app, spec string
}

// relayMgr is an edge node's upstream-leg registry: one refcounted leg
// per legKey, created by the first local subscriber of a group and
// torn down through the acked-departure path by the last leave.
type relayMgr struct {
	s       *Server
	self    string
	timeout time.Duration
	// lat estimates relay delivery latency (tuple source timestamp to
	// edge egress write) over sampled frames. Nil when telemetry is off.
	lat *telemetry.LatencyPair

	mu     sync.Mutex
	legs   map[legKey]*relayLeg
	closed bool
}

func newRelayMgr(s *Server) *relayMgr {
	m := &relayMgr{
		s:       s,
		self:    s.cfg.Federation.Self,
		timeout: s.cfg.Federation.DialTimeout,
		legs:    make(map[legKey]*relayLeg),
	}
	if m.timeout <= 0 {
		m.timeout = 5 * time.Second
	}
	if s.tel != nil {
		m.lat = telemetry.NewLatencyPair()
	}
	return m
}

// relayLeg is one upstream subscription: a resumable subscriber Stream
// to the source-owning core carrying the group's filtered stream, fanned
// out to every local member through the pooled refcounted frame path.
// The leg speaks the ordinary subscriber protocol (version 3 hello), so
// the core sees exactly the membership a single-node deployment would.
type relayLeg struct {
	mgr *relayMgr
	key legKey
	st  *Stream

	// ready is closed once the first dial resolves; err (set before the
	// close) rejects waiters when it failed. schemaPayload is the
	// upstream schema, replayed to every local member's handshake.
	ready         chan struct{}
	err           error
	schemaPayload []byte

	// closing latches teardown (last member left, shutdown, or the
	// upstream stream ended for good); ctx ends with it (bye) or with the
	// server, interrupting redial backoff; done closes when the run loop
	// exits.
	closing atomic.Bool
	ctx     context.Context
	bye     context.CancelFunc
	done    chan struct{}

	mu      sync.Mutex
	members []*subscriber
	scratch []*subscriber // fan-out copy, so sends run outside the lock
}

// relayBackoff is the legs' redial schedule.
var relayBackoff = Backoff{Base: 20 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Jitter: 0.2}

// ensureLeg finds or creates the leg for a group. The creator performs
// the first upstream dial outside the registry lock; concurrent
// subscribers of the same group wait on ready and share the result.
func (m *relayMgr) ensureLeg(key legKey, queue int) (*relayLeg, error) {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, errDraining
		}
		leg := m.legs[key]
		if leg == nil {
			// (source, app) is unique broker-wide, exactly as on a single
			// node: a same-app subscription under a different spec is a
			// conflict, rejected here rather than discovered as an
			// "already subscribed" refusal from the core after retries.
			for k, other := range m.legs {
				if k.source == key.source && k.app == key.app && !other.closing.Load() {
					m.mu.Unlock()
					return nil, fmt.Errorf("app %q already subscribed to source %q with a different spec", key.app, key.source)
				}
			}
			leg = m.newLeg(key, queue)
			m.legs[key] = leg
			m.mu.Unlock()
			if err := leg.open(); err != nil {
				m.drop(leg)
				leg.bye()
				leg.st.shut()
				leg.err = err
				close(leg.ready)
				close(leg.done)
				return nil, err
			}
			close(leg.ready)
			m.s.connWG.Add(1)
			go leg.run()
			return leg, nil
		}
		m.mu.Unlock()
		<-leg.ready
		if leg.err != nil {
			return nil, leg.err
		}
		if leg.closing.Load() {
			// Raced with the last member's teardown; wait it out and
			// create a fresh leg. The wait matters: the core rejects a
			// second session for the app until the departure is acked.
			<-leg.done
			continue
		}
		return leg, nil
	}
}

// newLeg builds a leg whose stream dials the source's current owner.
func (m *relayMgr) newLeg(key legKey, queue int) *relayLeg {
	leg := &relayLeg{mgr: m, key: key, ready: make(chan struct{}), done: make(chan struct{})}
	leg.ctx, leg.bye = context.WithCancel(m.s.stopCtx)
	leg.st = NewStream(StreamConfig{
		Hello: SubHello{App: key.app, Source: key.source, Spec: key.spec, Queue: queue,
			Relay: true, RelayEdge: m.self},
		Timeout: m.timeout,
		Resolve: func() (string, string, error) {
			core, ok := m.s.ownerOf(key.source)
			if !ok {
				return "", "", fmt.Errorf("server: no core topology to place source %q", key.source)
			}
			return core.Name, core.Addr, nil
		},
		Backoff: &relayBackoff,
		// A transient "already subscribed" means the previous leg for this
		// group is mid-teardown and the core has not acked its departure.
		BusyWait: m.s.cfg.HandshakeTimeout,
		OnQoS:    leg.forwardQoS,
	})
	return leg
}

// drop removes a leg from the registry (if still registered).
func (m *relayMgr) drop(leg *relayLeg) {
	m.mu.Lock()
	if m.legs[leg.key] == leg {
		delete(m.legs, leg.key)
	}
	m.mu.Unlock()
}

// attach adds a local member to the leg; false when the leg began
// closing concurrently (the caller re-runs ensureLeg).
func (leg *relayLeg) attach(sub *subscriber) bool {
	leg.mu.Lock()
	defer leg.mu.Unlock()
	if leg.closing.Load() {
		return false
	}
	leg.members = append(leg.members, sub)
	return true
}

// detach removes a departed member. The last member's departure tears
// the leg down through the acked path: a goodbye upstream, then the run
// loop reads on to the core's departure ack (bounded by deadlines), so
// when the local client's own Leave ack goes out, the group at the core
// has already been re-derived without this app — exactly the ordering a
// single-node departure guarantees.
func (m *relayMgr) detach(sub *subscriber) {
	leg := sub.leg
	leg.mu.Lock()
	for i, s2 := range leg.members {
		if s2 == sub {
			leg.members = append(leg.members[:i], leg.members[i+1:]...)
			break
		}
	}
	// The CAS is the teardown latch: detach and shutdown race to it, and
	// only the winner tears the leg down.
	last := len(leg.members) == 0 && leg.closing.CompareAndSwap(false, true)
	leg.mu.Unlock()
	if !last {
		return
	}
	m.drop(leg)
	leg.bye()
	leg.st.depart(m.s.cfg.WriteTimeout)
	<-leg.done
}

// open opens the leg's first upstream session, inside the subscriber
// handshake of the member that created it. Rejections (unknown source,
// bad spec) surface immediately — the local client sees the same error a
// single-node subscribe would.
func (leg *relayLeg) open() error {
	if err := leg.st.Open(leg.ctx); err != nil {
		if leg.ctx.Err() != nil {
			return errDraining
		}
		return err
	}
	payload, err := EncodeSchema(leg.st.Session().Schema())
	if err != nil {
		return err
	}
	leg.schemaPayload = payload
	leg.mgr.s.ctr.fedLegDials.Add(1)
	leg.mgr.s.lg.Info("upstream leg opened", "source", leg.key.source, "app", leg.key.app, "core", leg.st.Owner())
	return nil
}

// run is the leg's read loop over the stream's raw frames: it decodes
// nothing it does not have to, forwards each transmission frame
// byte-identically (same kind, same payload — offsets included), and
// fans it out to every local member through the refcounted frame pool.
// The stream redials a drain goodbye or a lost connection, resuming a
// durable upstream from its cursor so members ride through core
// restarts and partitions without a gap or a duplicate. A finished
// source finishes the members; an eviction of the leg evicts them all,
// since they share the leg's group at the core.
func (leg *relayLeg) run() {
	defer leg.mgr.s.connWG.Done()
	defer close(leg.done)
	defer leg.st.shut()
	ctr := &leg.mgr.s.ctr
	var (
		// Relay-latency sampling state: decoding every transmission just
		// to read its timestamp would tax the relay hot path, so one in
		// relaySampleEvery frames is decoded into reused scratch.
		nframes uint64
		scratch tuple.Tuple
		labels  [][]byte
	)
	for {
		sub := leg.st.Session()
		fr, err := sub.next()
		if err != nil {
			if leg.closing.Load() {
				return // the departure ack, or the teardown cut the stream
			}
			resumed, rerr := leg.st.recover(leg.ctx, err)
			if rerr == nil {
				ctr.fedLegRedials.Add(1)
				if resumed {
					ctr.fedLegResumes.Add(1)
				}
				leg.mgr.s.lg.Info("upstream leg re-established", "source", leg.key.source, "app", leg.key.app,
					"core", leg.st.Owner(), "resume", resumed, "cause", err)
				continue
			}
			if leg.closing.CompareAndSwap(false, true) {
				leg.mgr.s.lg.Warn("upstream leg ended", "source", leg.key.source, "app", leg.key.app, "err", rerr)
				leg.mgr.drop(leg)
				leg.bye()
				leg.endMembers(rerr)
			}
			return
		}
		ctr.fedRelayFrames.Add(1)
		var ts int64
		if leg.mgr.lat != nil && nframes%relaySampleEvery == 0 {
			if l, _, err := wire.DecodeTransmissionInto(&scratch, sub.Schema(), labels[:0], fr.body); err == nil {
				labels = l
				ts = scratch.TS.UnixNano()
			}
		}
		nframes++
		leg.fanout(fr.kind, fr.payload, ts)
	}
}

// relaySampleEvery sets the relay-latency sampling period: one in this
// many relayed frames is decoded for its source timestamp.
const relaySampleEvery = 8

// fanout hands one reconstructed frame to every local member: copied
// once into a pooled refcounted frame, retained per member, one queue
// hand-off each through the core's member queue. The member list is
// copied under the lock so a slow member blocking under the block policy
// never holds up a concurrent detach.
func (leg *relayLeg) fanout(kind byte, payload []byte, ts int64) {
	members := leg.snapshot()
	if len(members) == 0 {
		return
	}
	fr := broker.NewFrame(kind, payload, ts, leg.mgr.lat)
	fr.Retain(len(members))
	for _, sub := range members {
		sub.m.Send(fr)
	}
}

// snapshot copies the member list into the fan-out scratch; only the run
// loop (and the QoS hook it calls) uses the scratch.
func (leg *relayLeg) snapshot() []*subscriber {
	leg.mu.Lock()
	defer leg.mu.Unlock()
	leg.scratch = append(leg.scratch[:0], leg.members...)
	return leg.scratch
}

// forwardQoS mirrors an upstream QoS announcement to every member: the
// core degrades (or restores) the leg's group, and with it every local
// session sharing the leg.
func (leg *relayLeg) forwardQoS(scale float64) {
	for _, sub := range leg.snapshot() {
		sub.m.SetQoS(scale)
	}
}

// endMembers ends every member's stream the way the upstream stream
// ended: an eviction evicts them (with the core's reason), anything else
// — the source finished — drains their queues and sends the goodbye a
// single-node subscriber would receive.
func (leg *relayLeg) endMembers(cause error) {
	leg.mu.Lock()
	members := append([]*subscriber(nil), leg.members...)
	leg.mu.Unlock()
	for _, sub := range members {
		if errors.Is(cause, ErrEvicted) {
			sub.m.Evict("upstream leg: " + cause.Error())
		} else {
			sub.m.EndStream()
		}
	}
}

// shutdown tears down every leg during server drain: upstream conns
// close (the cores clean their sessions on disconnect), run loops
// exit, and every local member's stream finishes with the drain-tagged
// goodbye the writer emits while the server drains.
func (m *relayMgr) shutdown() {
	m.mu.Lock()
	m.closed = true
	legs := make([]*relayLeg, 0, len(m.legs))
	for _, leg := range m.legs {
		legs = append(legs, leg)
	}
	m.legs = make(map[legKey]*relayLeg)
	m.mu.Unlock()
	for _, leg := range legs {
		// A concurrent last-member detach may hold the teardown latch; the
		// stream closes either way, and the run loop exits.
		leg.closing.Store(true)
		leg.bye()
		leg.st.shut()
	}
	for _, leg := range legs {
		<-leg.done
		leg.endMembers(nil)
	}
}

// counts reports the live leg and member totals.
func (m *relayMgr) counts() (legs, members int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, leg := range m.legs {
		legs++
		leg.mu.Lock()
		members += len(leg.members)
		leg.mu.Unlock()
	}
	return legs, members
}

// serveEdgeSubscriber runs a local subscriber session on an edge node:
// instead of joining an engine, the session joins (or creates) the
// upstream leg for its group and fans out from it. The handshake
// answer is the core's own hello-ok schema, so clients cannot tell an
// edge from a single-node broker.
func (s *Server) serveEdgeSubscriber(conn net.Conn, h SubHello, spec quality.Spec) {
	if h.Relay {
		s.reject(conn, fmt.Errorf("edge node cannot serve a relay leg (relay hellos go to cores)"))
		return
	}
	if h.Resume {
		// Resume state lives in the core's durable log. A partitioned
		// edge resumes its upstream legs itself; local clients just
		// reconnect and stream live. The typed rejection is what makes
		// that true: a reconnecting client redialing with Resume matches
		// ErrResumeUnavailable and falls back to a live re-subscription.
		s.reject(conn, fmt.Errorf("%w: an edge node serves live streams only (its upstream leg resumes on the subscribers' behalf)", ErrResumeUnavailable))
		return
	}
	if s.isDraining() {
		s.reject(conn, errDraining)
		return
	}
	queue := s.b.QueueDepth(h.Queue)
	s.pinSendBuffer(conn)
	// The canonical spec rendering is the dedup key: equivalent specs
	// parse and re-render identically, so equal groups share one leg.
	key := legKey{source: h.Source, app: h.App, spec: spec.String()}
	var (
		leg *relayLeg
		sub *subscriber
	)
	for {
		var err error
		leg, err = s.fed.ensureLeg(key, queue)
		if err != nil {
			s.reject(conn, err)
			return
		}
		sub = &subscriber{s: s, conn: conn, writerDone: make(chan struct{}), leg: leg}
		sub.m = s.b.NewRelayMember(h.App, h.Source, queue, func() { s.fed.detach(sub) })
		if leg.attach(sub) {
			break
		}
		// The leg closed between lookup and attach (last member left);
		// ensureLeg will wait out the teardown and dial a fresh one.
	}
	if err := WriteFrame(conn, FrameHelloOK, leg.schemaPayload); err != nil {
		s.removeSubscriber(sub)
		conn.Close()
		return
	}
	s.ctr.subscribersAccepted.Add(1)
	s.lg.Info("subscriber joined", "app", h.App, "source", h.Source, "spec", key.spec, "via_leg", true)
	s.connWG.Add(1)
	go sub.writeLoop()
	sub.readLoop()
}

// FederationStats is a point-in-time view of a node's federation
// state, for metrics, loadbench reports and introspection.
type FederationStats struct {
	Role string `json:"role"`
	Self string `json:"self,omitempty"`
	// UpstreamLegs and LocalSubscribers describe an edge's relay state;
	// DedupRatio is local subscribers per upstream leg — the group-aware
	// dedup factor the federation exists to deliver (1 means no sharing;
	// K means each inter-node stream serves K local sessions).
	UpstreamLegs     int     `json:"upstream_legs"`
	LocalSubscribers int     `json:"local_subscribers"`
	DedupRatio       float64 `json:"dedup_ratio"`
	// Relay is the sampled relay delivery latency (tuple source
	// timestamp to edge egress write).
	Relay telemetry.LatencySnapshot `json:"relay_latency"`
}

// FederationStats snapshots the node's federation state. The zero Role
// string "single" reports a standalone node.
func (s *Server) FederationStats() FederationStats {
	st := FederationStats{
		Role: s.cfg.Federation.Role.String(),
		Self: s.cfg.Federation.Self,
	}
	if s.fed != nil {
		st.UpstreamLegs, st.LocalSubscribers = s.fed.counts()
		if st.UpstreamLegs > 0 {
			st.DedupRatio = float64(st.LocalSubscribers) / float64(st.UpstreamLegs)
		}
		st.Relay = s.fed.lat.Snapshot()
	}
	return st
}

// ownerOf resolves the core owning a source under the current
// topology; ok is false on a node with no core topology configured.
func (s *Server) ownerOf(source string) (federate.Node, bool) {
	s.fedMu.RLock()
	topo := s.topo
	s.fedMu.RUnlock()
	if topo == nil {
		return federate.Node{}, false
	}
	return topo.Owner(source), true
}

// UpdatePeers installs a new core peer list — the rebalance entry
// point for node join/leave. Placement recomputes immediately; on an
// edge, every leg whose source moved to a different core is forced off
// its connection, and its run loop re-subscribes live against the new
// owner. Callers orchestrating a move quiesce the affected publishers
// (Sync, then reopen on the new owner) around this call; the parity
// suite pins the resulting streams gapless.
func (s *Server) UpdatePeers(cores []federate.Node) error {
	topo, err := federate.NewTopology(cores)
	if err != nil {
		return err
	}
	s.fedMu.Lock()
	s.topo = topo
	s.fedMu.Unlock()
	if s.fed == nil {
		return nil
	}
	s.fed.mu.Lock()
	legs := make([]*relayLeg, 0, len(s.fed.legs))
	for _, leg := range s.fed.legs {
		legs = append(legs, leg)
	}
	s.fed.mu.Unlock()
	moved := 0
	for _, leg := range legs {
		if owner := leg.st.Owner(); owner != "" && owner != topo.Owner(leg.key.source).Name {
			// Cutting the connection sends the run loop through redial,
			// which re-resolves the owner and rejoins there live.
			leg.st.Session().conn.Close()
			moved++
		}
	}
	s.lg.Info("peers updated", "cores", len(cores), "legs_moved", moved)
	return nil
}
