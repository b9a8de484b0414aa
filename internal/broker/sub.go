package broker

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/core"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Sub is one member: a bounded queue of shared frames, counted in
// deliveries, between the source's shard worker (or a relay leg) and one
// consumer — an embedded application calling Recv, or a networked
// writer shipping the frame bytes.
//
// Every exit goes through leave, which closes done and then drains the
// queue back to the frame pool: join failure, a transport's own
// teardown, Close, eviction and an aborted broker Close. A graceful end
// of stream (source finish, broker Close) closes fin instead and leaves
// the buffered frames to the consumer, which leaves once it has read
// them.
type Sub struct {
	b      *Broker
	app    string
	source string
	schema *tuple.Schema
	spec   quality.Spec

	out chan *Frame
	// fin signals end of stream (closed after the source's final flush,
	// or at broker teardown); out itself is never closed, so a worker's
	// in-flight send can never race the teardown. Buffered frames remain
	// receivable after fin closes.
	fin  chan struct{}
	done chan struct{}

	// joined is set (under Broker.mu) at the member's join boundary; the
	// sink delivers only to joined members.
	joined bool

	leaveOnce sync.Once
	finOnce   sync.Once
	dropped   atomic.Uint64

	// retractMu serializes the engine-side departure (Close racing an
	// eviction's asynchronous retraction); retracted latches it.
	retractMu sync.Mutex
	retracted bool
	// detach, on a relay member, replaces the engine retraction.
	detach func()

	// Resume state. spliceTo is the fence captured inside the AddFilter
	// control closure — every live delivery for this member carries an
	// offset >= spliceTo, so the replayed history [resumeFrom, spliceTo)
	// and the live stream tile the log exactly. cursor walks that history
	// until it is exhausted (then nil); replayErr latches a failed replay,
	// which is terminal: falling through to the live stream would
	// silently cross the gap.
	resume     bool
	resumeFrom uint64
	spliceTo   uint64
	cursor     *seglog.Cursor
	replayErr  error

	// Degrade-policy state (nil/zero under other policies, or when the
	// member's filter is not adapt.Scalable). The governor is driven only
	// by the source's shard worker (send calls are serialized), so it
	// needs no lock; the decided target crosses to scaleLoop — which must
	// be a separate goroutine, since Control from the worker would
	// deadlock — via targetScale + scaleKick. The scale in effect is
	// published in applied, and each change kicks qosKick for a transport
	// that announces it.
	gov         *adapt.Governor
	scalable    adapt.Scalable
	scaleKick   chan struct{}
	targetScale atomic.Uint64 // float64 bits
	applied     atomic.Uint64 // float64 bits
	qosKick     chan struct{}

	// evictMsg latches the eviction reason before done closes, so a
	// consumer unblocked by the close observes it (the close is the
	// happens-before edge).
	evictOnce sync.Once
	evictMsg  atomic.Pointer[string]

	// lat estimates this member's delivery-latency quantiles, fed at the
	// delivery point. Nil when telemetry is disabled.
	lat *telemetry.LatencyPair

	// Embedded consumer state (single-threaded, like every transport's
	// receive side): decoded label views and their interned strings.
	views  [][]byte
	labels wire.Interner
}

// App returns the application name of this subscription.
func (s *Sub) App() string { return s.app }

// Source returns the subscribed source name.
func (s *Sub) Source() string { return s.source }

// Schema returns the source schema.
func (s *Sub) Schema() *tuple.Schema { return s.schema }

// Spec returns the parsed quality specification the subscription joined
// with.
func (s *Sub) Spec() quality.Spec { return s.spec }

// QueueDepth returns the delivery queue depth in effect (the requested
// depth after defaulting and clamping).
func (s *Sub) QueueDepth() int { return cap(s.out) }

// QueueLen returns the deliveries currently queued.
func (s *Sub) QueueLen() int { return len(s.out) }

// Dropped returns the deliveries lost to the slow-consumer policy (or to
// departure).
func (s *Sub) Dropped() uint64 { return s.dropped.Load() }

// Resume reports the member's resume request and its splice fence.
func (s *Sub) Resume() (resume bool, from, spliceTo uint64) {
	s.b.mu.RLock()
	defer s.b.mu.RUnlock()
	return s.resume, s.resumeFrom, s.spliceTo
}

// Latency snapshots the member's delivery-latency quantiles (zero when
// telemetry is disabled).
func (s *Sub) Latency() telemetry.LatencySnapshot { return s.lat.Snapshot() }

// QoS returns the quality scale currently applied to this member by the
// Degrade policy: 1 means full fidelity, larger means the effective spec
// has been coarsened by that factor.
func (s *Sub) QoS() float64 { return math.Float64frombits(s.applied.Load()) }

// SetQoS records a scale decided elsewhere (an edge relaying its
// upstream's announcement) and kicks QoSChanged.
func (s *Sub) SetQoS(scale float64) {
	s.applied.Store(math.Float64bits(scale))
	select {
	case s.qosKick <- struct{}{}:
	default:
	}
}

// QoSChanged signals (coalesced) that the applied scale changed.
func (s *Sub) QoSChanged() <-chan struct{} { return s.qosKick }

// Frames is the member queue, for a transport's writer.
func (s *Sub) Frames() <-chan *Frame { return s.out }

// Ended is closed when the stream ends gracefully; frames queued before
// it remain to be consumed.
func (s *Sub) Ended() <-chan struct{} { return s.fin }

// Done is closed when the member leaves.
func (s *Sub) Done() <-chan struct{} { return s.done }

// EvictReason returns why the member was evicted ("" if it was not).
func (s *Sub) EvictReason() string {
	if msg := s.evictMsg.Load(); msg != nil {
		return *msg
	}
	return ""
}

// Send enqueues one frame reference under the slow-consumer policy; the
// reference is consumed either way. It is called from shard workers (or
// a relay leg); frames for one member arrive from one goroutine at a
// time, in release order. A blocking send is bounded by
// Config.EvictTimeout: a member that cannot absorb a delivery within it
// is evicted — otherwise an abandoned subscription would park the worker
// forever.
func (s *Sub) Send(fr *Frame) {
	select {
	case <-s.done:
		// The member already left; frames queued for it are lost.
		s.drop(fr)
		return
	default:
	}
	cfg := &s.b.cfg
	if cfg.Policy == Drop {
		select {
		case s.out <- fr:
			s.enqueued()
		default:
			s.drop(fr)
		}
		return
	}
	if s.gov != nil {
		// Degrade: sample pressure before the (blocking) hand-off so a
		// filling queue coarsens the spec before it wedges the worker.
		s.observePressure()
	}
	select {
	case s.out <- fr:
		s.enqueued()
		return
	default:
	}
	var expire <-chan time.Time
	if cfg.EvictTimeout > 0 {
		t := time.NewTimer(cfg.EvictTimeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case s.out <- fr:
		s.enqueued()
	case <-s.done:
		s.drop(fr)
	case <-s.b.abort:
		s.drop(fr)
	case <-expire:
		s.drop(fr)
		s.Evict(fmt.Sprintf("delivery blocked longer than EvictTimeout (%v)", cfg.EvictTimeout))
	}
}

// enqueued accounts a successful hand-off, then re-checks the departure
// latch: a departure's drain and this send can interleave so the frame
// lands after the drain ran, which would strand its reference outside
// the pool. If done turns out closed, this sender drains the queue
// itself — channel receives are exactly-once, so however many racing
// drainers run, every stranded frame is released exactly once.
func (s *Sub) enqueued() {
	s.b.deliveries.Add(1)
	select {
	case <-s.done:
		s.drainQueued()
	default:
	}
}

// drop releases an undeliverable frame reference, counts it, and evicts
// the member once the configured threshold is crossed — a consumer that
// persistently cannot keep up learns it was cut off instead of losing
// data silently.
func (s *Sub) drop(fr *Frame) {
	fr.Release()
	n := s.dropped.Add(1)
	s.b.drops.Add(1)
	if limit := s.b.cfg.EvictAfterDrops; limit > 0 && n >= uint64(limit) {
		s.Evict(fmt.Sprintf("%d deliveries dropped (limit %d)", n, limit))
	}
}

// Evict force-detaches the member: the reason is latched (so the
// consumer surfaces ErrEvicted rather than a bare stream end), the member
// leaves, and the engine-side retraction is handed to a goroutine — it
// must not run on the calling shard worker, since Control would enqueue
// into the very ring that worker drains. The slow-consumer policy evicts
// through it, and so does an edge whose upstream leg the core evicted.
func (s *Sub) Evict(reason string) {
	s.evictOnce.Do(func() {
		select {
		case <-s.done:
			// Already departed; drops past the end are not an eviction.
			return
		default:
		}
		s.evictMsg.Store(&reason)
		s.b.evictions.Add(1)
		s.b.lg.Warn("subscriber evicted", "app", s.app, "source", s.source, "reason", reason)
		s.leave()
		go s.retract(context.Background())
	})
}

// leave is the one member-close: it marks the member departed (sends stop
// blocking on it and queue nothing more) and returns every queued frame
// to the pool.
func (s *Sub) leave() {
	s.leaveOnce.Do(func() { close(s.done) })
	s.drainQueued()
}

// drainQueued releases frames left in the queue.
func (s *Sub) drainQueued() {
	for {
		select {
		case fr := <-s.out:
			fr.Release()
		default:
			return
		}
	}
}

// EndStream marks the end of the stream after the last delivery that can
// target the member: pending frames remain receivable, then the consumer
// sees the end.
func (s *Sub) EndStream() {
	s.finOnce.Do(func() { close(s.fin) })
}

// Close leaves the group: the member's filter is removed from the live
// engine at a tuple boundary, re-deriving the group for the remaining
// members, and later deliveries stop. Outputs the group still owes the
// departed application decide normally; their labels are pruned from the
// remaining members' deliveries. When Close returns, the departure has
// been applied; the registry entry — and with it the app name — is
// released only after the filter has left the engine, so owed outputs
// cannot reach a new session reusing the name.
func (s *Sub) Close(ctx context.Context) error {
	s.leave()
	return s.retract(ctx)
}

// retract performs the engine-side departure once: a relay member
// detaches from its leg; a group member's filter leaves the engine and
// its registry entry is dropped.
func (s *Sub) retract(ctx context.Context) error {
	s.retractMu.Lock()
	defer s.retractMu.Unlock()
	if s.retracted {
		return nil
	}
	s.retracted = true
	if s.detach != nil {
		s.detach()
		return nil
	}
	s.b.mu.RLock()
	registered := s.b.subs[s.source][s.app] == s
	s.b.mu.RUnlock()
	if !registered {
		// Already detached by the source's finish or the broker's close:
		// the group is retired, and the name may already belong to a new
		// session whose filter must not be removed.
		return nil
	}
	err := s.b.rt.ControlContext(ctx, s.source, func(e *core.Engine) error { return e.RemoveFilter(s.app) })
	s.b.dropSubEntry(s)
	if err != nil && !ignorableLeave(err) {
		return err
	}
	return nil
}

// observePressure feeds the degrade governor one sample (queue occupancy
// plus delivery p99) and, on a verdict, publishes the new target scale to
// scaleLoop. Called only from the source's shard worker, which serializes
// all sends for this member, so the governor needs no lock.
func (s *Sub) observePressure() {
	p99 := s.lat.Snapshot().P99
	scale, changed := s.gov.Observe(time.Now(), len(s.out), cap(s.out), p99)
	if !changed {
		return
	}
	prev := math.Float64frombits(s.targetScale.Load())
	s.targetScale.Store(math.Float64bits(scale))
	if scale > prev {
		s.b.qosDegrades.Add(1)
		s.b.lg.Info("subscriber degraded", "app", s.app, "source", s.source, "scale", scale, "queue", len(s.out), "p99", p99)
	} else {
		s.b.qosRestores.Add(1)
		s.b.lg.Info("subscriber restored", "app", s.app, "source", s.source, "scale", scale)
	}
	select {
	case s.scaleKick <- struct{}{}:
	default: // a kick is already pending; it will read the newest target
	}
}

// scaleLoop applies governor verdicts to the live filter from its own
// goroutine: SetScale must run on the owning shard worker via Control at
// a tuple boundary, and calling Control from the worker itself (inside
// send) would deadlock. Targets are absolute, so coalesced kicks applying
// only the newest value are correct.
func (s *Sub) scaleLoop() {
	for {
		select {
		case <-s.done:
			return
		case <-s.fin:
			return
		case <-s.scaleKick:
		}
		target := math.Float64frombits(s.targetScale.Load())
		err := s.b.rt.Control(s.source, func(*core.Engine) error { return s.scalable.SetScale(target) })
		if err != nil {
			continue // source finishing or broker draining; nothing to scale
		}
		s.SetQoS(target)
	}
}

// Delivered feeds the delivery-latency estimators for frames that just
// reached their consumer at now (UnixNano): the member's, the group's and
// the aggregate pipeline's. One clock read covers a whole batch.
func (s *Sub) Delivered(now int64, frames ...*Frame) {
	if s.b.tel == nil {
		return
	}
	for _, fr := range frames {
		if fr.ts == 0 {
			continue
		}
		d := time.Duration(now - fr.ts)
		s.lat.Observe(d)
		fr.src.Observe(d)
		s.b.tel.ObserveDelivery(d)
	}
}

// NextReplay returns the next history record addressed to this member —
// its log offset and transmission payload, valid until the next call —
// or io.EOF once the history up to the splice fence is exhausted (and
// for members that did not resume). Consumers replay before reading any
// live frame: live frames buffer in the queue meanwhile, all at offsets
// at or above the fence, so the two phases tile into one stream.
func (s *Sub) NextReplay() (uint64, []byte, error) {
	if s.replayErr != nil {
		return 0, nil, s.replayErr
	}
	for s.cursor != nil {
		select {
		case <-s.done:
			return 0, nil, ErrReplayAborted
		default:
		}
		off, payload, err := s.cursor.Next()
		if err == io.EOF {
			s.cursor = nil
			break
		}
		if err != nil {
			s.replayErr = fmt.Errorf("broker: replaying %q: %w", s.source, err)
			return 0, nil, s.replayErr
		}
		if wire.TransmissionHasDestination(payload, s.app) {
			return off, payload, nil
		}
	}
	return 0, nil, io.EOF
}

// Recv blocks for the next delivery until ctx is done. It returns
// ErrStreamEnded once the stream ends gracefully (the source finished,
// the broker closed, or this subscription left the group).
func (s *Sub) Recv(ctx context.Context) (Delivery, error) {
	var d Delivery
	err := s.RecvInto(ctx, &d)
	return d, err
}

// RecvInto is Recv decoding into d, reusing d's tuple and label storage:
// everything reachable from d is valid only until the next RecvInto with
// the same Delivery. The subscription consumes the same encoded frames a
// networked writer ships, so both transports deliver identical bytes.
func (s *Sub) RecvInto(ctx context.Context, d *Delivery) error {
	// History first: a resuming subscription drains its log slice before
	// any live delivery.
	if s.cursor != nil || s.replayErr != nil {
		off, payload, err := s.NextReplay()
		switch {
		case err == nil:
			if err := s.decode(d, payload); err != nil {
				return err
			}
			d.Offset = off
			d.ReceivedAt = time.Now()
			return nil
		case err == ErrReplayAborted:
			return s.endErr()
		case err != io.EOF:
			return err
		}
	}
	// Fast path: a queued frame needs no four-way select.
	select {
	case fr := <-s.out:
		return s.deliver(d, fr)
	default:
	}
	select {
	case fr := <-s.out:
		return s.deliver(d, fr)
	case <-s.fin:
		// The stream has ended; drain what is still buffered before
		// reporting the end.
		select {
		case fr := <-s.out:
			return s.deliver(d, fr)
		default:
			s.leave()
			return s.endErr()
		}
	case <-s.done:
		return s.endErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deliver decodes a live frame into d and releases the reference.
func (s *Sub) deliver(d *Delivery, fr *Frame) error {
	payload, off := fr.transmission()
	err := s.decode(d, payload)
	now := time.Now()
	d.Offset, d.ReceivedAt = off, now
	s.Delivered(now.UnixNano(), fr)
	fr.Release()
	return err
}

// decode decodes a wire transmission into d.
func (s *Sub) decode(d *Delivery, payload []byte) error {
	if d.Tuple == nil {
		d.Tuple = new(tuple.Tuple)
	}
	views, n, err := wire.DecodeTransmissionInto(d.Tuple, s.schema, s.views[:0], payload)
	s.views = views
	if err == nil && n != len(payload) {
		err = fmt.Errorf("transmission carries %d trailing bytes", len(payload)-n)
	}
	if err != nil {
		return fmt.Errorf("broker: decoding delivery for %q: %w", s.app, err)
	}
	// A reused Delivery usually carries the same labels as last time:
	// keep each one that still matches in place and intern the rest.
	prev := d.Destinations
	d.Destinations = d.Destinations[:0]
	for i, v := range views {
		if i < len(prev) && string(v) == prev[i] {
			d.Destinations = append(d.Destinations, prev[i])
			continue
		}
		d.Destinations = append(d.Destinations, s.labels.Intern(v))
	}
	return nil
}

// endErr reports why the stream ended: a wrapped ErrEvicted when the
// broker force-detached the subscription, plain ErrStreamEnded otherwise.
func (s *Sub) endErr() error {
	if msg := s.evictMsg.Load(); msg != nil {
		return fmt.Errorf("%w: %s", ErrEvicted, *msg)
	}
	return ErrStreamEnded
}
