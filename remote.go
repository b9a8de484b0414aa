package gasf

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gasf/internal/server"
)

// Remote is the networked Broker implementation: every Source and
// Subscription is a TCP session against a gasf-server speaking the
// framed wire protocol (DESIGN.md §7). The handle itself holds no
// connection — sessions dial lazily, bounded by WithDialTimeout or the
// call's context deadline — and Close closes the sessions opened
// through it. With WithReconnect the sessions are self-healing: a lost
// connection is redialed on the configured backoff schedule and the
// stream resumed (see DESIGN.md §14 for the exact continuity contract).
type Remote struct {
	addr string
	cfg  brokerConfig

	mu       sync.Mutex
	closed   bool
	sessions map[any]func() error
}

var _ Broker = (*Remote)(nil)

// Dial returns a Broker driving the gasf-server at addr, e.g.
// "localhost:7070". Engine-shaping options belong to the server and are
// rejected here; WithDialTimeout bounds each session handshake and
// WithReconnect makes the sessions survive connection loss.
func Dial(addr string, opts ...Option) (*Remote, error) {
	cfg, err := resolveBrokerConfig(true, opts)
	if err != nil {
		return nil, err
	}
	return &Remote{addr: addr, cfg: cfg, sessions: make(map[any]func() error)}, nil
}

// track registers a live session for Close (re-registering under the
// same key replaces the close function after a redial); it reports false
// when the broker is already closed.
func (r *Remote) track(key any, close func() error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.sessions[key] = close
	return true
}

// untrack forgets a session that closed itself.
func (r *Remote) untrack(key any) {
	r.mu.Lock()
	delete(r.sessions, key)
	r.mu.Unlock()
}

// OpenSource implements Broker: it opens a publisher session advertising
// the schema in the handshake.
func (r *Remote) OpenSource(ctx context.Context, name string, schema *Schema) (Source, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pub, err := server.DialPublisherTimeout(r.addr, name, schema, server.DialTimeoutFor(ctx, r.cfg.dialTimeout))
	if err != nil {
		return nil, err
	}
	src := &remoteSource{r: r, name: name, schema: schema}
	src.pub.Store(pub)
	if !r.track(src, pub.Close) {
		pub.Close()
		return nil, errBrokerClosed
	}
	return src, nil
}

// Subscribe implements Broker: the spec is parsed and validated locally,
// then relayed in its canonical (lossless) rendering; the server
// validates it against the source schema and applies the join at a tuple
// boundary before the handshake completes.
func (r *Remote) Subscribe(ctx context.Context, app, source, spec string, opts ...SubOption) (Subscription, error) {
	sp, err := specFor(spec)
	if err != nil {
		return nil, err
	}
	sc, err := resolveSubConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := server.NewStream(server.StreamConfig{
		Hello: server.SubHello{App: app, Source: source, Spec: sp.String(),
			Queue: sc.queue, Resume: sc.resume, ResumeFrom: sc.resumeFrom},
		RecvBuffer: sc.recvBuffer,
		Timeout:    r.cfg.dialTimeout,
		Resolve:    func() (string, string, error) { return r.addr, r.addr, nil },
		Backoff:    r.cfg.reconnect,
	})
	if err := st.Open(ctx); err != nil {
		return nil, err
	}
	sub := &remoteSub{r: r, sp: sp, st: st}
	if !r.track(sub, st.Close) {
		st.Close()
		return nil, errBrokerClosed
	}
	return sub, nil
}

// Close implements Broker: publisher sessions close gracefully (the
// server flushes their tails to their subscribers) and subscriber
// sessions leave their groups. The server itself keeps running.
func (r *Remote) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	open := make([]func() error, 0, len(r.sessions))
	for _, close := range r.sessions {
		open = append(open, close)
	}
	r.sessions = nil
	r.mu.Unlock()
	var errs []error
	for _, close := range open {
		if err := close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// sourceWindowCap bounds the reconnect republish window, in tuples: the
// tuples published since the last Sync barrier that a redial would
// republish. Past the cap the oldest are forgotten (and the window
// marked truncated, which disables hint-based trimming — better to
// republish conservatively than to trim against an incomplete window).
const sourceWindowCap = 65536

// remoteSource adapts a publisher session to the unified interface.
// Without WithReconnect it is a thin veneer over one session; with it,
// publishes are serialized under mu, an unacked window of tuples since
// the last Sync barrier is retained, and a lost connection is redialed
// with the window republished — trimmed by the server's durable resume
// hint so a restart does not duplicate what already reached the log.
type remoteSource struct {
	r      *Remote
	name   string
	schema *Schema
	pub    atomic.Pointer[server.Publisher]

	// Reconnect state, all under mu (only touched when r.cfg.reconnect
	// is set; without it the methods call the session directly, unlocked,
	// preserving the historical concurrency profile).
	mu        sync.Mutex
	window    []*Tuple
	truncated bool
	finished  bool
}

var _ Source = (*remoteSource)(nil)

func (s *remoteSource) Name() string    { return s.name }
func (s *remoteSource) Schema() *Schema { return s.schema }

func (s *remoteSource) Publish(ctx context.Context, t *Tuple) error {
	if s.r.cfg.reconnect == nil {
		return s.pub.Load().PublishContext(ctx, t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(ctx, []*Tuple{t})
}

func (s *remoteSource) PublishBatch(ctx context.Context, tuples []*Tuple) error {
	if s.r.cfg.reconnect == nil {
		return s.pub.Load().PublishBatchContext(ctx, tuples)
	}
	if len(tuples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(ctx, tuples)
}

func (s *remoteSource) publishLocked(ctx context.Context, tuples []*Tuple) error {
	if s.finished {
		return fmt.Errorf("gasf: source %q finished", s.name)
	}
	err := s.pub.Load().PublishBatchContext(ctx, tuples)
	if err == nil {
		s.remember(tuples)
		return nil
	}
	if !server.Redialable(err) {
		return err
	}
	// The write may have landed partially; remember the batch and let the
	// redial republish the whole window — the server's resume hint trims
	// whatever the old connection actually got into the durable log.
	s.remember(tuples)
	return s.redialReplayLocked(ctx)
}

// remember appends tuples to the unacked window, sliding out the oldest
// past the cap.
func (s *remoteSource) remember(tuples []*Tuple) {
	s.window = append(s.window, tuples...)
	if over := len(s.window) - sourceWindowCap; over > 0 {
		n := copy(s.window, s.window[over:])
		clear(s.window[n:])
		s.window = s.window[:n]
		s.truncated = true
	}
}

// redialReplayLocked redials the publisher session on the backoff
// schedule (bounded by ctx) and republishes the unacked window, trimmed
// by the fresh session's resume hint when the window can be trimmed
// safely. Replayed tuples stay in the window until the next Sync
// barrier acknowledges them.
func (s *remoteSource) redialReplayLocked(ctx context.Context) error {
	return s.r.cfg.reconnect.Retry(ctx, func() (bool, error) {
		s.pub.Load().Close() // the lost session, or the one whose replay failed
		pub, err := server.DialPublisherTimeout(s.r.addr, s.name, s.schema, server.DialTimeoutFor(ctx, s.r.cfg.dialTimeout))
		if err != nil {
			return false, err
		}
		s.pub.Store(pub)
		if !s.r.track(s, pub.Close) {
			pub.Close()
			return true, errBrokerClosed
		}
		replay := s.window
		if maxSeq, ok := pub.ResumeHint(); ok && !s.truncated {
			replay = trimWindow(replay, maxSeq)
		}
		if len(replay) == 0 {
			return true, nil
		}
		err = pub.PublishBatchContext(ctx, replay)
		return !server.Redialable(err), err
	})
}

// trimWindow drops the window prefix the server already holds (sequence
// numbers <= maxSeq from the durable resume hint). Trimming by sequence
// is only sound when the window's sequence numbers are strictly
// increasing; otherwise the whole window is republished and the engine's
// strictly-increasing-timestamp check rejects true duplicates server
// side on non-durable runs.
func trimWindow(w []*Tuple, maxSeq int64) []*Tuple {
	for i := 1; i < len(w); i++ {
		if w[i].Seq <= w[i-1].Seq {
			return w
		}
	}
	for i, t := range w {
		if int64(t.Seq) > maxSeq {
			return w[i:]
		}
	}
	return nil
}

func (s *remoteSource) Sync(ctx context.Context) error {
	if s.r.cfg.reconnect == nil {
		return s.pub.Load().Sync(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return fmt.Errorf("gasf: source %q finished", s.name)
	}
	for {
		err := s.pub.Load().Sync(ctx)
		if err == nil {
			// The barrier acknowledges everything published so far: the
			// server has it ordered in the shard ring (and appended, when
			// durable), so the window can be forgotten.
			clear(s.window)
			s.window = s.window[:0]
			s.truncated = false
			return nil
		}
		if !server.Redialable(err) {
			return err
		}
		if rerr := s.redialReplayLocked(ctx); rerr != nil {
			return rerr
		}
	}
}

// Finish sends the goodbye and closes the session; the server finishes
// the engine and flushes the tail to the subscribers asynchronously
// (their streams end once it lands). Finish is terminal even with
// reconnect enabled: a lost connection here is not redialed (the
// server's flow-gap expiry finishes an abandoned source on its own).
func (s *remoteSource) Finish(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.r.cfg.reconnect != nil {
		s.mu.Lock()
		s.finished = true
		s.mu.Unlock()
	}
	err := s.pub.Load().Close()
	s.r.untrack(s)
	return err
}

// remoteSub adapts a subscriber stream to the unified interface. The
// stream (internal/server) owns the session, the resume cursor and, with
// WithReconnect, the redials: a lost connection or a drain goodbye is
// redialed with Resume from the last delivered offset plus one, splicing
// the redelivered history onto the live stream gapless and
// duplicate-free. A source-finish stream end and an eviction are
// terminal — never redialed.
type remoteSub struct {
	r  *Remote
	sp Spec
	st *server.Stream
}

var _ Subscription = (*remoteSub)(nil)

func (s *remoteSub) App() string     { return s.st.Session().App() }
func (s *remoteSub) Source() string  { return s.st.Session().Source() }
func (s *remoteSub) Schema() *Schema { return s.st.Session().Schema() }
func (s *remoteSub) Spec() Spec      { return s.sp }

// QoS returns the quality scale last announced by the server's degrade
// policy for this session (1 until any announcement arrives; resets to
// 1 on a reconnect, matching the fresh session's full fidelity).
func (s *remoteSub) QoS() float64 { return s.st.Session().QoS() }

func (s *remoteSub) Recv(ctx context.Context) (*Delivery, error) {
	d, err := s.st.Recv(ctx)
	return d, s.ended(err)
}

func (s *remoteSub) RecvInto(ctx context.Context, d *Delivery) error {
	return s.ended(s.st.RecvInto(ctx, d))
}

// ended maps a receive error to the public sentinels. A stream that has
// ended for good is untracked right away: a long-lived Remote would
// otherwise accumulate dead sessions whose callers never Close after
// ErrStreamEnded.
func (s *remoteSub) ended(err error) error {
	if err != nil && s.st.Ended() {
		s.r.untrack(s)
	}
	return mapStreamEnd(err)
}

// Close leaves the group and waits for the server's departure ack, so a
// caller that continues publishing afterwards knows the group has been
// re-derived without this member.
func (s *remoteSub) Close(ctx context.Context) error {
	err := s.st.Leave(ctx)
	s.r.untrack(s)
	return err
}
