package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Backoff parameterizes a retry schedule: delays grow from Base by
// Factor per consecutive failure, capped at Max, with a uniform random
// perturbation of ±Jitter (a fraction of the delay) so a fleet of
// clients does not thunder back in lockstep after a restart.
// WithDefaults fills the zero fields with the defaults noted per field.
type Backoff struct {
	// Base is the first retry delay; 0 means 100ms.
	Base time.Duration
	// Max caps the grown delay; 0 means 5s.
	Max time.Duration
	// Factor multiplies the delay per consecutive failure; 0 means 2.
	Factor float64
	// Jitter is the ± perturbation as a fraction of the delay, in [0, 1];
	// 0 means 0.2.
	Jitter float64
}

// WithDefaults fills the zero fields and rejects a negative field, a
// jitter outside [0, 1] or a factor below 1.
func (b Backoff) WithDefaults() (Backoff, error) {
	if b.Base < 0 || b.Max < 0 || b.Factor < 0 || b.Jitter < 0 || b.Jitter > 1 {
		return b, fmt.Errorf("negative field or jitter outside [0, 1]")
	}
	if b.Base == 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max == 0 {
		b.Max = 5 * time.Second
	}
	if b.Max < b.Base {
		b.Max = b.Base
	}
	if b.Factor == 0 {
		b.Factor = 2
	}
	if b.Factor < 1 {
		return b, fmt.Errorf("factor must be >= 1")
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	return b, nil
}

// Delay returns the jittered delay after the attempt'th consecutive
// failure (attempt 0 = first retry).
func (b Backoff) Delay(attempt int) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	// Uniform in [1-Jitter, 1+Jitter).
	d *= 1 + b.Jitter*(2*rand.Float64()-1)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Wait sleeps for the attempt'th delay, returning early with ctx's error
// when ctx ends first.
func (b Backoff) Wait(ctx context.Context, attempt int) error {
	t := time.NewTimer(b.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retry calls op until it reports done, waiting out the schedule between
// calls, and returns op's final error; when ctx ends first, it returns
// ctx's error with op's last failure attached.
func (b Backoff) Retry(ctx context.Context, op func() (done bool, err error)) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		done, err := op()
		if done {
			return err
		}
		if werr := b.Wait(ctx, attempt); werr != nil {
			return fmt.Errorf("%w (last error: %v)", werr, err)
		}
	}
}

// DialTimeoutFor bounds one dial by the configured timeout and ctx's
// deadline, whichever is sooner (0 leaves the 5s dial default). A
// deadline already past still yields a positive timeout, so the dial
// fails at once instead of falling back to the default.
func DialTimeoutFor(ctx context.Context, def time.Duration) time.Duration {
	if deadline, ok := ctx.Deadline(); ok {
		if d := time.Until(deadline); def <= 0 || d < def {
			return max(d, time.Nanosecond)
		}
	}
	return def
}

// Cursor is a subscriber stream's resume point: the last durable log
// offset it delivered. Only offset-bearing frames move it, so a frame the
// server could not make durable never poses as the log's first record.
// Atomic: introspection reads an edge leg's cursor while its reader
// advances it.
type Cursor struct {
	last atomic.Uint64
	seen atomic.Bool
}

// Last returns the last delivered offset; ok is false until an
// offset-bearing frame arrives (and again after a reset).
func (c *Cursor) Last() (off uint64, ok bool) {
	if !c.seen.Load() {
		return 0, false
	}
	return c.last.Load(), true
}

func (c *Cursor) advance(off uint64) {
	c.last.Store(off)
	c.seen.Store(true)
}

// reset forgets the position: offsets name records in one node's log.
func (c *Cursor) reset() { c.seen.Store(false) }

// endClass is what a stream end means for the stream.
type endClass int

const (
	endOther    endClass = iota // not a stream end: the caller's ctx ended, or a protocol error
	endRedial                   // a drain goodbye or a lost connection: a redial heals it
	endFinish                   // a plain goodbye: the source finished
	endTerminal                 // an eviction: redialing would fight the server's policy
)

// classifyEnd classifies a receive (or publish) error. The context
// sentinels are checked first, since context.DeadlineExceeded implements
// net.Error.
func classifyEnd(err error) endClass {
	switch {
	case err == nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return endOther
	case errors.Is(err, ErrServerDraining):
		return endRedial
	case errors.Is(err, ErrStreamEnded):
		return endFinish
	case errors.Is(err, ErrEvicted):
		return endTerminal
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed):
		return endRedial
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return endRedial
	}
	return endOther
}

// Redialable reports whether err is a session end a redial heals: a
// lost connection or a drain goodbye, as opposed to a finished source, an
// eviction, a protocol error or the caller's own cancellation.
func Redialable(err error) bool { return classifyEnd(err) == endRedial }

// StreamConfig describes the sessions of one Stream.
type StreamConfig struct {
	// Hello is the session identity plus the caller's original resume
	// point; a stream that asked for history never falls back to live.
	Hello SubHello
	// RecvBuffer and Timeout are as in SubDialOpts.
	RecvBuffer int
	Timeout    time.Duration
	// Resolve names the node to dial. A change of owner between sessions
	// resets the cursor.
	Resolve func() (owner, addr string, err error)
	// Backoff paces redials; nil makes every stream end final.
	Backoff *Backoff
	// BusyWait is how long the first dial retries ErrAlreadySubscribed
	// (the app's previous session is still leaving); it needs a Backoff.
	BusyWait time.Duration
	// OnQoS, when set, sees every QoS announcement.
	OnQoS func(scale float64)
}

// Stream is a subscriber stream that outlives its connections: the
// session of the moment, one resume cursor across sessions, and one
// redial policy. A gasf.Remote subscription and an edge's upstream relay
// leg are both Streams. With a Backoff, a drain goodbye or a lost
// connection is redialed from the cursor and a rejected resume falls
// back to live; a plain goodbye and an eviction end the stream for good.
type Stream struct {
	cfg StreamConfig
	cur Cursor
	sub atomic.Pointer[Subscriber]

	mu     sync.Mutex
	owner  string
	closed bool

	// err latches the final end; only the receiving goroutine touches it.
	err error
}

// NewStream prepares a stream; Open dials its first session.
func NewStream(cfg StreamConfig) *Stream { return &Stream{cfg: cfg} }

// Open dials the first session. Rejections surface to the caller, except
// ErrAlreadySubscribed within cfg.BusyWait.
func (st *Stream) Open(ctx context.Context) error {
	if st.cfg.Backoff == nil || st.cfg.BusyWait <= 0 {
		_, err := st.dialInstall(ctx)
		return err
	}
	deadline := time.Now().Add(st.cfg.BusyWait)
	return st.cfg.Backoff.Retry(ctx, func() (bool, error) {
		_, err := st.dialInstall(ctx)
		return !errors.Is(err, ErrAlreadySubscribed) || !time.Now().Before(deadline), err
	})
}

// dialInstall dials one session from the cursor and installs it;
// resumed reports whether the session resumes from a position.
func (st *Stream) dialInstall(ctx context.Context) (resumed bool, err error) {
	owner, addr, err := st.cfg.Resolve()
	if err != nil {
		return false, err
	}
	st.mu.Lock()
	moved := owner != st.owner
	st.mu.Unlock()
	if moved {
		st.cur.reset()
	}
	h := st.cfg.Hello
	if off, ok := st.cur.Last(); ok {
		h.Resume, h.ResumeFrom = true, off+1
	}
	sub, err := dialSubscriber(addr, h, DialTimeoutFor(ctx, st.cfg.Timeout), st.cfg.RecvBuffer)
	if err != nil {
		if h.Resume && !st.cfg.Hello.Resume && errors.Is(err, ErrResumeUnavailable) {
			// The node cannot replay from the cursor: it lost its log,
			// runs without one, or is an edge (its leg resumes for the
			// clients). Rejoin live at once.
			st.cur.reset()
			return st.dialInstall(ctx)
		}
		return false, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		sub.shut()
		return false, errStreamClosed
	}
	sub.cur, sub.onQoS = &st.cur, st.cfg.OnQoS
	st.owner = owner
	st.sub.Store(sub)
	return h.Resume, nil
}

// errStreamClosed reports a session dialed after its stream was closed.
var errStreamClosed = errors.New("server: stream closed")

// redial replaces the lost session on the backoff schedule until a
// session is installed, the stream is closed, or ctx ends. Every dial
// failure is retried: the node may be restarting (connection refused),
// its source may not have reattached yet (unknown source), or it may not
// have noticed the old session die (already subscribed).
func (st *Stream) redial(ctx context.Context, cause error) (resumed bool, err error) {
	st.sub.Load().shut()
	err = st.cfg.Backoff.Retry(ctx, func() (bool, error) {
		if st.isClosed() {
			return true, errStreamClosed
		}
		var err error
		resumed, err = st.dialInstall(ctx)
		return err == nil || errors.Is(err, errStreamClosed), err
	})
	if errors.Is(err, errStreamClosed) {
		err = cause
	}
	if err != nil {
		return false, fmt.Errorf("server: redialing %s/%s: %w", st.cfg.Hello.App, st.cfg.Hello.Source, err)
	}
	return resumed, nil
}

// recover handles a receive error by its stream-end class: nil once a
// redial has installed a fresh session, otherwise the error to report. A
// finish or an eviction latches the end; without a Backoff a drain
// goodbye is a finish.
func (st *Stream) recover(ctx context.Context, err error) (resumed bool, _ error) {
	switch classifyEnd(err) {
	case endFinish:
		return false, st.end(ErrStreamEnded)
	case endTerminal:
		return false, st.end(err)
	case endRedial:
		if st.cfg.Backoff != nil {
			return st.redial(ctx, err)
		}
		if errors.Is(err, ErrStreamEnded) {
			return false, st.end(ErrStreamEnded)
		}
	}
	return false, err
}

// end latches the final stream end and releases the session.
func (st *Stream) end(err error) error {
	st.err = err
	st.sub.Load().shut()
	return err
}

// Ended reports whether the stream has ended for good.
func (st *Stream) Ended() bool { return st.err != nil }

// Session returns the current session.
func (st *Stream) Session() *Subscriber { return st.sub.Load() }

// Owner returns the resolver name the current session was dialed to.
func (st *Stream) Owner() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.owner
}

// RecvInto is Subscriber.RecvInto across sessions. Receives are serial
// per stream.
func (st *Stream) RecvInto(ctx context.Context, d *Delivery) error {
	for st.err == nil {
		err := st.sub.Load().RecvIntoContext(ctx, d)
		if err == nil {
			return nil
		}
		if _, err = st.recover(ctx, err); err != nil {
			return err
		}
	}
	return st.err
}

// Recv is RecvInto into a fresh Delivery, which the caller may keep.
func (st *Stream) Recv(ctx context.Context) (*Delivery, error) {
	d := new(Delivery)
	if err := st.RecvInto(ctx, d); err != nil {
		return nil, err
	}
	return d, nil
}

// latch closes the stream to redials and returns the session to release.
func (st *Stream) latch() *Subscriber {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	return st.sub.Load()
}

func (st *Stream) isClosed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// Close ends the stream with a goodbye, without waiting for the ack.
func (st *Stream) Close() error {
	if sub := st.latch(); sub != nil {
		return sub.Close()
	}
	return nil
}

// shut closes the stream and its connection without a goodbye.
func (st *Stream) shut() {
	if sub := st.latch(); sub != nil {
		sub.shut()
	}
}

// Leave is Subscriber.Leave for the current session; it must not race a
// receive.
func (st *Stream) Leave(ctx context.Context) error {
	sub := st.latch()
	if sub == nil || st.err != nil {
		return nil // the stream ended; the session is gone
	}
	return sub.Leave(ctx)
}

// depart is Leave from outside the receiving goroutine: the goodbye goes
// out now, and the receiver reads on to the ack (or to the timeout).
func (st *Stream) depart(timeout time.Duration) {
	sub := st.latch()
	if sub == nil {
		return
	}
	sub.conn.SetWriteDeadline(time.Now().Add(timeout))
	if sent, err := sub.depart(); !sent || err != nil {
		sub.conn.Close()
		return
	}
	sub.conn.SetReadDeadline(time.Now().Add(timeout))
}
