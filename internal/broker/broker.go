// Package broker is the session core shared by both transports: dynamic
// sources and subscriptions multiplexed onto the sharded group-aware
// filtering runtime (internal/shard). The embedded gasf.Broker drives it
// directly; the networked server (internal/server) wraps the same core
// with sockets, so the two transports are behaviorally interchangeable by
// construction — the facade's parity suite confirms byte-identical
// released sequences per subscriber.
//
//   - A source opens with a name and schema, streams strictly
//     timestamp-ordered tuples, and finishes; finishing flushes the
//     engine's tail to its subscribers, then ends their streams.
//   - A subscriber joins a source's live group with a quality
//     specification at a tuple boundary (the paper's group re-derivation,
//     §4.3) and leaves the same way; membership changes are applied by
//     the source's owning shard worker, so other sources are undisturbed.
//   - Each released transmission is encoded once into a pooled,
//     refcounted frame labeled with the live subscribers only, appended
//     to the durable log when there is one, and shared by every target
//     queue. A networked writer ships the frame bytes; an embedded
//     subscription decodes them on Recv.
//   - A bounded per-member queue, counted in deliveries, applies the
//     block, drop or degrade slow-consumer policy.
package broker

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/core"
	"gasf/internal/flowgap"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Policy selects how a full member queue is treated.
type Policy int

const (
	// Block applies backpressure: the shard worker waits for queue space,
	// which eventually stalls the publishers feeding that shard. Nothing
	// is lost; the slowest consumer paces its sources.
	Block Policy = iota
	// Drop discards the delivery and counts it, keeping fast subscribers
	// and publishers unaffected by a slow one.
	Drop
	// Degrade keeps Block's zero-loss backpressure but adds a
	// per-subscriber adaptive controller: under sustained queue pressure
	// (or past the delivery-p99 watermark) a subscriber whose filter
	// implements adapt.Scalable has its effective quality spec coarsened
	// stepwise at tuple boundaries, and restored stepwise with hysteresis
	// once pressure clears. Subscribers whose filters are not Scalable
	// degrade to plain blocking.
	Degrade
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy reads a policy name ("block", "drop" or "degrade").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return Drop, nil
	case "degrade":
		return Degrade, nil
	default:
		return 0, fmt.Errorf("unknown slow-consumer policy %q (want block, drop or degrade)", s)
	}
}

// Config parameterizes a Broker. The zero value runs default engine
// options with blocking slow-consumer handling.
type Config struct {
	// Engine configures the group-aware engine deployed per source
	// (algorithm, cuts, output strategy) and the shard runtime knobs.
	Engine core.Options
	// SubscriberQueue bounds each member's delivery queue, in
	// deliveries; 0 means 256. A subscription may request its own depth,
	// clamped to MaxSubscriberQueue.
	SubscriberQueue int
	// MaxSubscriberQueue caps the per-member queue depth a subscriber may
	// request (memory protection); 0 means 65536.
	MaxSubscriberQueue int
	// Policy selects the slow-consumer policy (block, drop or degrade).
	Policy Policy
	// EvictTimeout bounds how long a blocking delivery waits on a full
	// member queue before the member is evicted — what keeps an abandoned
	// blocking subscription from wedging a shard worker (and with it
	// Finish and a graceful Close) forever. 0 means 10s; negative
	// disables eviction (unbounded blocking, for transports whose writer
	// enforces its own deadline).
	EvictTimeout time.Duration
	// EvictAfterDrops evicts a member once this many of its deliveries
	// have been dropped: instead of thinning silently forever, the
	// session ends with ErrEvicted. 0 disables drop-count eviction.
	EvictAfterDrops int
	// Degrade tunes the per-subscription governor used by the Degrade
	// policy (watermarks, step, cooldown). The zero value takes the
	// governor defaults. Ignored under other policies.
	Degrade adapt.GovernorConfig
	// SourceTimeout expires a silent source: one that neither publishes,
	// heartbeats, nor sits in a backpressured submit for this long. 0 and
	// negative disable the tracker entirely.
	SourceTimeout time.Duration
	// ScanInterval is the granularity of the flow-gap wheel when
	// SourceTimeout is set: silence is detected no earlier than
	// SourceTimeout and no later than about two intervals past it. 0
	// derives SourceTimeout/8 clamped to [10ms, 1s].
	ScanInterval time.Duration
	// DataDir, when set, makes the broker durable: every delivered
	// transmission is appended to a per-source segment log under this
	// directory before fan-out, deliveries carry their log offsets, and
	// subscriptions may resume from a recorded offset. New recovers the
	// log (truncating any torn tail) before accepting work.
	DataDir string
	// Seglog tunes the durable log (segment size, fsync policy). Ignored
	// unless DataDir is set.
	Seglog seglog.Options
	// TelemetrySampleEvery sets the stage-timing sampling period: one in
	// every N hot-path events per stage is timed (rounded up to a power
	// of two). 0 means telemetry.DefaultSampleEvery; negative disables
	// stage timing and latency estimation entirely.
	TelemetrySampleEvery int
	// Logger, when set, receives the core's session events (degrade and
	// restore decisions, evictions, log append failures).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SubscriberQueue <= 0 {
		c.SubscriberQueue = 256
	}
	if c.MaxSubscriberQueue <= 0 {
		c.MaxSubscriberQueue = 65536
	}
	if c.SubscriberQueue > c.MaxSubscriberQueue {
		c.MaxSubscriberQueue = c.SubscriberQueue
	}
	if c.EvictTimeout == 0 {
		c.EvictTimeout = 10 * time.Second
	}
	if c.ScanInterval <= 0 && c.SourceTimeout > 0 {
		c.ScanInterval = min(max(c.SourceTimeout/8, 10*time.Millisecond), time.Second)
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// discardHandler drops every record (go 1.22 predates
// slog.DiscardHandler).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// ErrStreamEnded reports a graceful end of a subscription stream (the
// source finished or the broker closed).
var ErrStreamEnded = errors.New("broker: stream ended")

// ErrEvicted reports that the broker force-detached the subscription —
// it blocked past Config.EvictTimeout, or exceeded Config.EvictAfterDrops.
// Recv errors wrap it with the reason.
var ErrEvicted = errors.New("broker: subscriber evicted")

// ErrResumeUnavailable reports a resume that cannot be served: the broker
// has no durable log, or the offset lies beyond the log head.
//
// The sentinel's message doubles as the machine-readable wire tag:
// rejections wrap it with fmt.Errorf("%w: detail", ...), so an error
// frame renders as "resume unavailable: detail", and the networked
// client re-types the payload by cutting that exact prefix. Match with
// errors.Is, never by prose.
var ErrResumeUnavailable = errors.New("resume unavailable")

// ErrAlreadySubscribed reports a join rejected because the (app, source)
// pair is already held by a live session. It is transient while a
// departure is in flight. Tagged on the wire like ErrResumeUnavailable.
var ErrAlreadySubscribed = errors.New("already subscribed")

// errClosed rejects operations after Close.
var errClosed = errors.New("broker: closed")

// Delivery is one transmission received by a subscription: the tuple,
// the destination label list pruned to the subscribers that were live at
// release time (this subscription is one of them), and the receive
// instant stamped by Recv.
type Delivery struct {
	Tuple        *tuple.Tuple
	Destinations []string
	ReceivedAt   time.Time
	// Offset is the delivery's position in the source's durable log when
	// the broker runs with Config.DataDir (0 otherwise, and 0 for the log's
	// first record). A consumer that checkpointed offset o resumes with
	// SubOptions.ResumeFrom = o+1. A delivery whose log append failed is
	// still delivered, but the log does not hold it: it travels without an
	// offset (a plain frame on the wire, which resume cursors skip) and
	// reads 0 here, so a checkpoint should keep its previous offset when a
	// later delivery reports 0.
	Offset uint64
}

// Stats is a point-in-time read of the core's counters.
type Stats struct {
	// Transmissions counts released transmissions handed to the sink,
	// Deliveries the member-queue hand-offs they fanned out to, and Drops
	// the deliveries lost to the slow-consumer policy or to departure.
	Transmissions, Deliveries, Drops uint64
	// Evictions counts members force-detached (blocked past EvictTimeout
	// or dropping past EvictAfterDrops); SourcesExpired counts sources
	// retired by flow-gap expiry.
	Evictions, SourcesExpired uint64
	// QoSDegrades and QoSRestores count degrade-governor decisions.
	QoSDegrades, QoSRestores uint64
	// LogAppendErrors counts failed durable-log appends (durability
	// degraded; delivery continued).
	LogAppendErrors uint64
}

// Broker is the session core. Create with New, open publishers with
// OpenSource, join groups with Subscribe, stop with Close.
type Broker struct {
	cfg    Config
	lg     *slog.Logger
	rt     *shard.Runtime
	cancel context.CancelFunc
	// abort is closed by Abort: it releases every shard worker parked in
	// a blocking send, which context cancellation alone cannot reach.
	abort     chan struct{}
	abortOnce sync.Once

	// log is the durable per-source segment log, nil unless Config.DataDir
	// was set. The sink appends before fan-out; replays read it
	// concurrently (reads work on snapshots, so they also tolerate Close).
	log *seglog.Log

	// mu guards the registries; the fan-out (sink) takes the read side so
	// shard workers do not serialize against each other or against
	// open/subscribe calls.
	mu      sync.RWMutex
	sources map[string]*Source
	subs    map[string]map[string]*Sub
	closed  bool

	// tel is the stage-timing and latency-estimation pipeline; nil when
	// Config.TelemetrySampleEvery is negative.
	tel *telemetry.Pipeline

	// wheel tracks per-source liveness when Config.SourceTimeout is set
	// (nil otherwise): publishes touch it off the lock, a background loop
	// advances it every ScanInterval, and expiry retires the silent
	// source.
	wheel     *flowgap.Wheel
	wheelStop chan struct{}
	wheelWG   sync.WaitGroup

	transmissions, deliveries, drops     atomic.Uint64
	evictions, sourcesExpired            atomic.Uint64
	qosDegrades, qosRestores, appendErrs atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// New starts a broker over a fresh shard runtime. With Config.DataDir set
// it first opens (and recovers) the durable log, so a failed recovery
// surfaces here rather than on the first publish.
func New(cfg Config) (*Broker, error) {
	cfg = cfg.withDefaults()
	if cfg.Policy == Degrade {
		// Surface a bad governor config here, not on the first Subscribe.
		if _, err := adapt.NewGovernor(cfg.Degrade); err != nil {
			return nil, fmt.Errorf("broker: %w", err)
		}
	}
	var log *seglog.Log
	if cfg.DataDir != "" {
		var err error
		if log, err = seglog.Open(cfg.DataDir, cfg.Seglog); err != nil {
			return nil, fmt.Errorf("broker: opening durable log: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var tel *telemetry.Pipeline
	if cfg.TelemetrySampleEvery >= 0 {
		tel = telemetry.New(cfg.TelemetrySampleEvery)
	}
	sc := shard.FromOptions(cfg.Engine)
	sc.Telemetry = tel
	b := &Broker{
		cfg:     cfg,
		lg:      cfg.Logger,
		rt:      shard.New(sc),
		cancel:  cancel,
		abort:   make(chan struct{}),
		log:     log,
		sources: make(map[string]*Source),
		subs:    make(map[string]map[string]*Sub),
		tel:     tel,
	}
	if err := b.rt.Start(ctx, b.sink); err != nil {
		cancel()
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	if cfg.SourceTimeout > 0 {
		b.wheel = flowgap.NewWheel(cfg.ScanInterval, cfg.SourceTimeout, b.expireSource)
		b.wheelStop = make(chan struct{})
		b.wheelWG.Add(1)
		go func() {
			defer b.wheelWG.Done()
			tk := time.NewTicker(cfg.ScanInterval)
			defer tk.Stop()
			for {
				select {
				case <-b.wheelStop:
					return
				case now := <-tk.C:
					b.wheel.Advance(now)
				}
			}
		}()
	}
	return b, nil
}

// expireSource is the wheel's expiry callback (on the advance loop,
// outside every lock): the source's expiry hook runs if it has one,
// otherwise the silent source is finished exactly as if its owner had
// called Finish, off the advance loop so a long tail flush cannot stall
// expiry of other sources.
func (b *Broker) expireSource(data any, lag time.Duration) {
	src := data.(*Source)
	b.sourcesExpired.Add(1)
	if src.onExpire != nil {
		src.onExpire(lag)
		return
	}
	go src.Finish(context.Background())
}

// Stats snapshots the core's counters.
func (b *Broker) Stats() Stats {
	return Stats{
		Transmissions:   b.transmissions.Load(),
		Deliveries:      b.deliveries.Load(),
		Drops:           b.drops.Load(),
		Evictions:       b.evictions.Load(),
		SourcesExpired:  b.sourcesExpired.Load(),
		QoSDegrades:     b.qosDegrades.Load(),
		QoSRestores:     b.qosRestores.Load(),
		LogAppendErrors: b.appendErrs.Load(),
	}
}

// Config returns the configuration in effect (defaults applied).
func (b *Broker) Config() Config { return b.cfg }

// Log exposes the durable log (nil unless Config.DataDir was set).
func (b *Broker) Log() *seglog.Log { return b.log }

// Wheel exposes the flow-gap wheel (nil unless Config.SourceTimeout is
// positive).
func (b *Broker) Wheel() *flowgap.Wheel { return b.wheel }

// Runtime exposes the shard runtime for metrics.
func (b *Broker) Runtime() *shard.Runtime { return b.rt }

// Results returns the per-source engine results accumulated so far; call
// after the sources finished (or after Close) for settled results.
// Finished sources stay registered (and their results readable) unless
// they were retired with Source.Retire. The Stats cover each source's
// whole run, but a source hands every release to its members as it goes,
// so Transmissions, Punctuations and Stats.Latencies are empty: a live
// source keeps only its engine's window.
func (b *Broker) Results() map[string]*core.Result { return b.rt.Results() }

// Metrics returns the per-shard runtime counters.
func (b *Broker) Metrics() []shard.Snapshot { return b.rt.Metrics() }

// Telemetry exposes the stage-timing pipeline (nil when disabled).
func (b *Broker) Telemetry() *telemetry.Pipeline { return b.tel }

// QueueDepth applies the broker default and cap to a requested member
// queue depth (0 takes the default).
func (b *Broker) QueueDepth(req int) int {
	if req <= 0 {
		req = b.cfg.SubscriberQueue
	}
	return min(req, b.cfg.MaxSubscriberQueue)
}

// Subs snapshots every registered group member (introspection).
func (b *Broker) Subs() []*Sub {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var all []*Sub
	for _, m := range b.subs {
		for _, sub := range m {
			all = append(all, sub)
		}
	}
	return all
}

// sinkState caches the per-source fan-out of the last released
// transmission: the engine-decided destination list is mapped to live
// member targets and their labels once per (epoch, list) run instead of
// once per transmission, and the encoded destination prefix is memoized
// inside the wire encoder. Owned by the source's shard worker (sink calls
// for one source are serialized), so it needs no locking.
type sinkState struct {
	epoch   uint64
	inDests []string // engine destination list the cache was computed for
	targets []*Sub
	labels  []string
	enc     wire.TransmissionEncoder
}

// Source is one open publisher session.
type Source struct {
	b      *Broker
	name   string
	schema *tuple.Schema

	// subEpoch counts member-registry changes for this source; it is
	// written under Broker.mu and read under its read side. The sink's
	// cache is keyed by it, so a membership change can never serve stale
	// targets or labels.
	subEpoch uint64
	sink     sinkState

	// gap is the source's liveness entry in the flow-gap wheel (untracked
	// when expiry is disabled). Publishes touch it and hold its busy flag
	// across the shard submit, so a source stalled in backpressure is
	// never mistaken for a silent one. onExpire, when set, replaces the
	// default expiry action (Finish).
	gap      flowgap.Entry
	onExpire func(lag time.Duration)

	mu       sync.Mutex
	lastTS   time.Time
	finished bool
	one      [1]*tuple.Tuple // Publish scratch

	// lat estimates the group's delivery-latency quantiles, fed at the
	// delivery point through each frame. Nil when telemetry is disabled.
	lat *telemetry.LatencyPair

	finOnce sync.Once
	finDone chan struct{}
	finErr  error
}

// OpenSource registers a live source: tuples may be published and
// subscribers may join as soon as the call returns. A registered name is
// taken until the source is retired (a finished source keeps its name
// and its result; reopening it is an error).
func (b *Broker) OpenSource(name string, schema *tuple.Schema) (*Source, error) {
	return b.OpenSourceExpiring(name, schema, nil)
}

// OpenSourceExpiring is OpenSource with a flow-gap expiry hook: when the
// source goes silent past Config.SourceTimeout, onExpire runs on the
// wheel's advance loop (lag is how far past its deadline the expiry
// fired) instead of the default Finish. A transport uses it to cut the
// publisher's connection and let its reader retire the source.
func (b *Broker) OpenSourceExpiring(name string, schema *tuple.Schema, onExpire func(lag time.Duration)) (*Source, error) {
	if name == "" {
		return nil, fmt.Errorf("broker: empty source name")
	}
	if schema == nil {
		return nil, fmt.Errorf("broker: nil schema for source %q", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errClosed
	}
	if b.sources[name] != nil {
		return nil, fmt.Errorf("source %q already connected", name)
	}
	engine, err := core.NewDynamicEngine(b.cfg.Engine)
	if err != nil {
		return nil, err
	}
	if err := b.rt.AddSourceLive(name, engine); err != nil {
		return nil, err
	}
	src := &Source{b: b, name: name, schema: schema, onExpire: onExpire}
	if b.tel != nil {
		src.lat = telemetry.NewLatencyPair()
	}
	b.sources[name] = src
	b.wheel.Add(&src.gap, src)
	return src, nil
}

// Name returns the source name.
func (s *Source) Name() string { return s.name }

// Schema returns the advertised schema.
func (s *Source) Schema() *tuple.Schema { return s.schema }

// Latency snapshots the group's delivery-latency quantiles (zero when
// telemetry is disabled).
func (s *Source) Latency() telemetry.LatencySnapshot { return s.lat.Snapshot() }

// Touch records proof of life (a heartbeat) in the flow-gap wheel.
func (s *Source) Touch() { s.b.wheel.Touch(&s.gap) }

// SetBusy marks the source as parked inside a barrier (busy sources are
// never expired) and touches it on the way out.
func (s *Source) SetBusy(busy bool) {
	s.gap.SetBusy(busy)
	if !busy {
		s.Touch()
	}
}

// LastSeen is the start of the wheel tick of the source's last touch
// (zero when expiry is disabled).
func (s *Source) LastSeen() time.Time { return s.b.wheel.TickTime(s.gap.LastTouch()) }

// Publish enqueues one tuple for the source's shard, blocking under
// backpressure until either ctx or the broker is done. Timestamps must
// be strictly increasing and the tuple must use the advertised schema.
func (s *Source) Publish(ctx context.Context, t *tuple.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.one[0] = t
	err := s.publishLocked(ctx, s.one[:])
	s.one[0] = nil
	return err
}

// PublishBatch publishes a run of tuples, crossing the shard boundary in
// one synchronization when the ring has room. The slice is not retained.
func (s *Source) PublishBatch(ctx context.Context, tuples []*tuple.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(ctx, tuples)
}

func (s *Source) publishLocked(ctx context.Context, tuples []*tuple.Tuple) error {
	if s.finished {
		return fmt.Errorf("broker: source %q finished", s.name)
	}
	lastTS := s.lastTS
	for _, t := range tuples {
		if t == nil {
			return fmt.Errorf("broker: nil tuple for source %q", s.name)
		}
		if !t.Schema().Equal(s.schema) {
			return fmt.Errorf("broker: tuple %d does not use the schema %v advertised by source %q", t.Seq, s.schema, s.name)
		}
		if !t.TS.After(lastTS) {
			return fmt.Errorf("broker: tuple %d timestamp %v not after previous %v", t.Seq, t.TS, lastTS)
		}
		lastTS = t.TS
	}
	// The timestamp cursor advances past every validated tuple even if
	// the submit fails partway: they may already sit in the ring.
	s.lastTS = lastTS
	if s.b.wheel == nil {
		return s.b.rt.SubmitBatchContext(ctx, s.name, tuples)
	}
	s.Touch()
	s.gap.SetBusy(true)
	err := s.b.rt.SubmitBatchContext(ctx, s.name, tuples)
	s.SetBusy(false)
	return err
}

// Sync is the publish barrier: when it returns, every previously
// published tuple is ordered in the source's shard ring ahead of any
// later membership change. Publishing is synchronous, so Sync only
// reports whether the source is still usable.
func (s *Source) Sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return fmt.Errorf("broker: source %q finished", s.name)
	}
	// A barrier is proof of life even with nothing published.
	s.Touch()
	return nil
}

// Finish ends the stream: the engine's Finish runs on the owning shard,
// its tail is flushed to the subscribers, and their streams end. Finish
// is idempotent; concurrent calls wait for the same completion. If ctx
// expires first, finishing continues in the background and the
// subscribers' streams still end once the tail has flushed.
func (s *Source) Finish(ctx context.Context) error {
	s.finOnce.Do(func() {
		// Made here, not at open: idle sources at scale never pay for it.
		s.finDone = make(chan struct{})
		s.mu.Lock()
		s.finished = true
		s.mu.Unlock()
		// A finished source is not a silent one. (Unclean removal —
		// Finish racing the expiry callback — is fine: sources are never
		// reused.)
		s.b.wheel.Remove(&s.gap)
		go func() {
			err := s.b.rt.FinishSourceWait(s.name)
			// The finish marker has been processed (or the runtime is
			// gone), so no further sink flush can touch these members:
			// their queues are complete and their streams may end.
			s.b.mu.Lock()
			subs := s.b.subs[s.name]
			delete(s.b.subs, s.name)
			s.b.mu.Unlock()
			for _, sub := range subs {
				sub.EndStream()
			}
			s.finErr = err
			close(s.finDone)
		}()
	})
	select {
	case <-s.finDone:
		return s.finErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retire finishes the source and then releases its name: the runtime
// forgets the engine (and its result) before the registry forgets the
// source, so a publisher reconnecting under the name either sees the old
// session (rejected, retryable) or a clean slate — the networked
// server's session model.
func (s *Source) Retire() error {
	err := s.Finish(context.Background())
	if rerr := s.b.rt.RemoveSource(s.name); rerr != nil && !s.b.isClosed() {
		err = errors.Join(err, rerr)
	}
	s.b.mu.Lock()
	if s.b.sources[s.name] == s {
		delete(s.b.sources, s.name)
	}
	s.b.mu.Unlock()
	return err
}

func (b *Broker) isClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// SubOptions parameterizes Subscribe.
type SubOptions struct {
	// Queue bounds the delivery queue; 0 accepts the broker default, and
	// requests are clamped to Config.MaxSubscriberQueue.
	Queue int
	// Resume asks for a catch-up subscription on a durable broker: the
	// source's log records in [ResumeFrom, fence) addressed to this app
	// are delivered first (in order, with their offsets), then the live
	// stream continues seamlessly from the fence.
	Resume     bool
	ResumeFrom uint64
}

// Subscribe joins a source's live filter group with a quality
// specification. The join is applied by the source's owning shard worker
// at a tuple boundary: the subscriber sees exactly the tuples published
// after Subscribe returns, and the group is re-derived without
// disturbing the source's other subscribers. With o.Resume set (durable
// brokers only) the subscription first replays the source's history from
// o.ResumeFrom up to the join fence, then continues live — gapless and
// duplicate-free.
func (b *Broker) Subscribe(ctx context.Context, app, source string, spec quality.Spec, o SubOptions) (*Sub, error) {
	if app == "" {
		return nil, fmt.Errorf("broker: empty app name")
	}
	if o.Queue < 0 {
		return nil, fmt.Errorf("broker: negative queue depth %d", o.Queue)
	}
	if o.Resume && b.log == nil {
		return nil, fmt.Errorf("%w: the broker has no durable log (set a data dir)", ErrResumeUnavailable)
	}
	f, err := spec.Build(app)
	if err != nil {
		return nil, err
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errClosed
	}
	src := b.sources[source]
	if src == nil {
		b.mu.Unlock()
		return nil, fmt.Errorf("unknown source %q", source)
	}
	for _, attr := range spec.Attrs {
		if !src.schema.Has(attr) {
			b.mu.Unlock()
			return nil, fmt.Errorf("source %q has no attribute %q (schema %v)", source, attr, src.schema)
		}
	}
	if b.subs[source][app] != nil {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: app %q holds a live session on %q", ErrAlreadySubscribed, app, source)
	}
	// Transmissions label every destination on the wire (u8 count), so a
	// group larger than the encoding allows could never be delivered.
	if len(b.subs[source]) >= wire.MaxDestinations {
		b.mu.Unlock()
		return nil, fmt.Errorf("source %q already has %d subscribers (wire limit)", source, wire.MaxDestinations)
	}
	if o.Resume {
		if head := b.log.NextOffset(source); o.ResumeFrom > head {
			b.mu.Unlock()
			return nil, fmt.Errorf("%w: resume offset %d is beyond the log head %d of source %q", ErrResumeUnavailable, o.ResumeFrom, head, source)
		}
	}
	sub := b.newSub(app, source, src.schema, b.QueueDepth(o.Queue))
	sub.spec = spec
	sub.resume, sub.resumeFrom = o.Resume, o.ResumeFrom
	if b.cfg.Policy == Degrade {
		if sc, ok := f.(adapt.Scalable); ok {
			// Config validated by New; a fresh governor per member keeps
			// each subscriber's trajectory independent.
			sub.gov, _ = adapt.NewGovernor(b.cfg.Degrade)
			sub.scalable = sc
			sub.scaleKick = make(chan struct{}, 1)
			sub.targetScale.Store(math.Float64bits(1))
		}
	}
	if b.subs[source] == nil {
		b.subs[source] = make(map[string]*Sub)
	}
	// The name is reserved now, so a concurrent duplicate is rejected;
	// the member receives from its join's tuple boundary on (joined).
	b.subs[source][app] = sub
	b.mu.Unlock()

	err = b.rt.ControlContext(ctx, source, func(e *core.Engine) error {
		if err := e.AddFilter(f); err != nil {
			return err
		}
		// Live from this boundary on. Releases before it were decided
		// without this member — some possibly for a departed session of
		// the same app — so the sink treats it as absent until now.
		b.mu.Lock()
		sub.joined = true
		src.subEpoch++
		if sub.resume {
			// The splice fence: this closure runs on the owning shard
			// worker at a tuple boundary, the same goroutine that appends
			// to the log, so every record below the fence was released
			// before this app joined and every transmission addressed to
			// it lands at or above the fence. Replaying [resumeFrom, fence)
			// and then streaming live is gapless and duplicate-free.
			sub.spliceTo = b.log.NextOffset(source)
		}
		b.mu.Unlock()
		return nil
	})
	if err != nil {
		b.failJoin(sub, err)
		return nil, fmt.Errorf("joining group of %q: %w", source, err)
	}
	if sub.resume {
		sub.cursor = b.log.Cursor(source, sub.resumeFrom, sub.spliceTo)
	}
	if sub.gov != nil {
		go sub.scaleLoop()
	}
	return sub, nil
}

// failJoin closes a member whose join failed or was abandoned through
// the same member close as every other exit: a frame the sink queued to
// it goes back to the pool (a cancelled join may still take effect at
// its tuple boundary), and later sends drop.
func (b *Broker) failJoin(sub *Sub, err error) {
	sub.retractMu.Lock()
	sub.retracted = true
	sub.retractMu.Unlock()
	sub.leave()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The cancelled wait may have left the AddFilter enqueued — it
		// will still run at its tuple boundary. Retract it behind it
		// (same ring, so the retraction is ordered after the join) so no
		// ghost member coordinates the group; the registry entry — and
		// with it the app name — is released only once the retraction
		// settled.
		go func() {
			_ = b.rt.Control(sub.source, func(e *core.Engine) error { return e.RemoveFilter(sub.app) })
			b.dropSubEntry(sub)
		}()
		return
	}
	b.dropSubEntry(sub)
}

// NewRelayMember creates a member outside every group: it is fed by the
// caller (an edge's relay leg) through Send rather than by the sink, and
// leaves through detach instead of an engine retraction. It shares the
// member queue, slow-consumer policy and eviction of group members.
func (b *Broker) NewRelayMember(app, source string, queue int, detach func()) *Sub {
	sub := b.newSub(app, source, nil, b.QueueDepth(queue))
	sub.detach = detach
	return sub
}

func (b *Broker) newSub(app, source string, schema *tuple.Schema, queue int) *Sub {
	sub := &Sub{
		b:       b,
		app:     app,
		source:  source,
		schema:  schema,
		out:     make(chan *Frame, queue),
		fin:     make(chan struct{}),
		done:    make(chan struct{}),
		qosKick: make(chan struct{}, 1),
	}
	sub.applied.Store(math.Float64bits(1))
	if b.tel != nil {
		sub.lat = telemetry.NewLatencyPair()
	}
	return sub
}

// dropSubEntry removes a member from the registry (the engine side has
// already been handled — or never joined).
func (b *Broker) dropSubEntry(sub *Sub) {
	b.mu.Lock()
	if m := b.subs[sub.source]; m != nil && m[sub.app] == sub {
		delete(m, sub.app)
		if src := b.sources[sub.source]; src != nil {
			src.subEpoch++
		}
	}
	b.mu.Unlock()
}

// sink receives batched released transmissions from the shard workers
// and fans each out to the live members named in its destination list.
// Per-source calls are serialized by the owning worker, so each member's
// stream arrives in release order, and the per-source caches need no
// lock. Each transmission is encoded exactly once into a pooled,
// refcounted frame labeled with the live targets only (departed members
// stop consuming bytes), appended to the durable log when there is one,
// and handed to every target queue.
func (b *Broker) sink(batch []shard.Out) {
	var fanStart time.Time
	if b.tel.Sample(telemetry.StageFanout) {
		fanStart = time.Now()
	}
	for i := range batch {
		o := &batch[i]
		b.transmissions.Add(1)
		b.mu.RLock()
		src := b.sources[o.Source]
		var st *sinkState
		if src != nil {
			st = &src.sink
			if st.epoch != src.subEpoch || !slices.Equal(st.inDests, o.Tr.Destinations) {
				// Membership or overlap pattern changed: recompute the live
				// targets and their labels. Label order follows the engine's
				// sorted destination list, so the encoding stays
				// deterministic.
				st.epoch, st.inDests = src.subEpoch, o.Tr.Destinations
				st.targets, st.labels = st.targets[:0], st.labels[:0]
				for _, app := range o.Tr.Destinations {
					if sub := b.subs[o.Source][app]; sub != nil && sub.joined {
						st.targets = append(st.targets, sub)
						st.labels = append(st.labels, app)
					}
				}
			}
		}
		b.mu.RUnlock()
		if st == nil || len(st.targets) == 0 {
			// The source is gone, or every addressee already left (their
			// owed outputs decided after the leave); nothing to encode.
			continue
		}
		fr := b.encode(o, src)
		if fr == nil {
			continue
		}
		fr.Retain(len(st.targets))
		for _, sub := range st.targets {
			sub.Send(fr)
		}
	}
	if !fanStart.IsZero() {
		b.tel.Observe(telemetry.StageFanout, time.Since(fanStart))
	}
}

// encode builds the shared frame for one released transmission and, on a
// durable broker, appends it to the source's log before any member queue
// sees it: a delivery can never report an offset the log does not hold.
// The durable record is the exact transmission fanned out — pruned
// labels included — so a replayed stream is byte-identical to what a
// live subscriber received. An append failure degrades durability, not
// delivery: it is counted and logged, and the frame goes out as a plain
// KindTransmission with no offset, so no resume cursor mistakes it for
// the log's first record.
func (b *Broker) encode(o *shard.Out, src *Source) *Frame {
	st := &src.sink
	fr := getFrame()
	kind := KindTransmission
	if b.log != nil {
		kind = KindTransmissionOff
	}
	buf := BeginFrame(fr.buf, kind)
	if b.log != nil {
		// Offset placeholder, patched after the append assigns it.
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	buf, err := st.enc.AppendTransmission(buf, st.epoch, o.Tr.Tuple, st.labels)
	if err != nil {
		fr.buf = buf[:0]
		fr.Retain(1)
		fr.Release()
		b.lg.Error("encoding transmission", "source", o.Source, "err", err)
		return nil
	}
	fr.buf = EndFrame(buf)
	if b.log != nil {
		off, err := b.log.Append(o.Source, fr.buf[FrameHeaderLen+8:])
		if err != nil {
			// Recovery truncates whatever half-record the error left.
			b.appendErrs.Add(1)
			b.lg.Error("segment log append", "source", o.Source, "err", err)
			fr.buf = append(fr.buf[:FrameHeaderLen], fr.buf[FrameHeaderLen+8:]...)
			fr.buf[0] = KindTransmission
			fr.buf = EndFrame(fr.buf)
		} else {
			binary.LittleEndian.PutUint64(fr.buf[FrameHeaderLen:], off)
		}
	}
	if b.tel != nil {
		fr.ts, fr.src = o.Tr.Tuple.TS.UnixNano(), src.lat
	}
	return fr
}

// Abort releases every shard worker parked in a blocking send and cancels
// the runtime, so blocked feeds, controls and finish waits unwind. Close
// calls it when its context expires; a transport that must unblock its
// own readers before closing the core calls it directly.
func (b *Broker) Abort() {
	b.abortOnce.Do(func() { close(b.abort) })
	b.cancel()
}

// Close drains the broker: open sources are finished (flushing their
// tails through their subscribers), the shard runtime drains, and every
// remaining member stream ends; buffered deliveries stay receivable.
// ctx bounds the graceful drain; on expiry the broker aborts. Publishes
// racing Close fail with an error rather than being silently dropped.
func (b *Broker) Close(ctx context.Context) error {
	b.closeOnce.Do(func() { b.closeErr = b.close(ctx) })
	return b.closeErr
}

func (b *Broker) close(ctx context.Context) error {
	// Stop flow-gap expiry first: Close owns the remaining finishes, and
	// an expiry racing the drain would only duplicate them.
	if b.wheel != nil {
		close(b.wheelStop)
		b.wheelWG.Wait()
	}
	b.mu.Lock()
	b.closed = true
	srcs := make([]*Source, 0, len(b.sources))
	for _, src := range b.sources {
		srcs = append(srcs, src)
	}
	b.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		var errs []error
		for _, src := range srcs {
			src.mu.Lock()
			finished := src.finished
			src.mu.Unlock()
			if finished {
				continue
			}
			if err := src.Finish(context.Background()); err != nil {
				errs = append(errs, err)
			}
		}
		if err := b.rt.Drain(); err != nil {
			errs = append(errs, err)
		}
		done <- errors.Join(errs...)
	}()

	var drainErr error
	aborted := false
	select {
	case drainErr = <-done:
	case <-ctx.Done():
		aborted = true
		b.Abort()
		drainErr = <-done
	}
	b.cancel()

	// The workers are gone, so no sink append can race the log close.
	// Replays may still be reading — reads work on snapshots (whole-file
	// reads), so they are unaffected.
	if b.log != nil {
		if err := b.log.Close(); err != nil {
			drainErr = errors.Join(drainErr, err)
		}
	}

	// Workers are gone, so no sink flush can race these stream ends.
	b.mu.Lock()
	var rest []*Sub
	for _, m := range b.subs {
		for _, sub := range m {
			rest = append(rest, sub)
		}
	}
	b.subs = make(map[string]map[string]*Sub)
	b.mu.Unlock()
	for _, sub := range rest {
		if aborted {
			sub.leave()
		}
		sub.EndStream()
	}
	if aborted {
		// The abort cancelled the runtime on purpose; surfacing the
		// cancellation itself would make every bounded Close fail.
		return StripCtxErrs(drainErr)
	}
	return drainErr
}

// StripCtxErrs removes context-cancellation errors from a (possibly
// joined) error tree, keeping real failures.
func StripCtxErrs(err error) error {
	if err == nil {
		return nil
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		var keep []error
		for _, e := range joined.Unwrap() {
			if e = StripCtxErrs(e); e != nil {
				keep = append(keep, e)
			}
		}
		return errors.Join(keep...)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return err
}

// ignorableLeave reports errors of an engine retraction that mean the
// group is already gone: the source finished (or was removed) or the
// runtime drained, and its teardown retired the whole group.
func ignorableLeave(err error) bool {
	return errors.Is(err, shard.ErrSourceFinished) || errors.Is(err, shard.ErrUnknownSource) || errors.Is(err, shard.ErrDrained)
}

// ErrReplayAborted marks a replay cut short by the member's own
// departure — an orderly exit, not a failure.
var ErrReplayAborted = errors.New("broker: replay aborted by departure")
