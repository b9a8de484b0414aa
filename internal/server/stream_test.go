package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gasf/internal/federate"
	"gasf/internal/tuple"
)

// frameReader is a session reading the given frames, for frame-reader
// unit tests; its connection is one end of a pipe.
func frameReader(t *testing.T, frames ...func(w io.Writer) error) (*Subscriber, *Cursor) {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
	}
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	cur := new(Cursor)
	return &Subscriber{conn: c1, br: bufio.NewReader(&buf), cur: cur}, cur
}

func frame(kind byte, payload []byte) func(io.Writer) error {
	return func(w io.Writer) error { return WriteFrame(w, kind, payload) }
}

func offsetFrame(off uint64, body string) func(io.Writer) error {
	return frame(FrameTransmissionOff, append(binary.LittleEndian.AppendUint64(nil, off), body...))
}

// TestResumeCursorMovesOnOffsetFrames checks the one frame reader: an
// offset-bearing frame advances the cursor and yields its body, a plain
// transmission yields its payload and leaves the cursor where it was,
// heartbeats pass silently and a QoS frame reaches the stream's hook.
func TestResumeCursorMovesOnOffsetFrames(t *testing.T) {
	sub, cur := frameReader(t,
		offsetFrame(7, "seven"),
		frame(FrameHeartbeat, nil),
		frame(FrameQoS, EncodeQoS(2)),
		frame(FrameTransmission, []byte("plain")),
		offsetFrame(9, "nine"),
		frame(FrameTransmissionOff, []byte{1, 2, 3}),
	)
	var announced []float64
	sub.onQoS = func(scale float64) { announced = append(announced, scale) }
	if _, ok := cur.Last(); ok {
		t.Fatal("fresh cursor claims a position")
	}
	want := []struct {
		kind byte
		body string
		off  uint64
	}{
		{FrameTransmissionOff, "seven", 7},
		{FrameTransmission, "plain", 7},
		{FrameTransmissionOff, "nine", 9},
	}
	for i, w := range want {
		fr, err := sub.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.kind != w.kind || string(fr.body) != w.body {
			t.Fatalf("frame %d: kind %d body %q, want %d %q", i, fr.kind, fr.body, w.kind, w.body)
		}
		if w.kind == FrameTransmissionOff && (fr.off != w.off || len(fr.payload) != 8+len(w.body)) {
			t.Fatalf("frame %d: offset %d payload %d bytes", i, fr.off, len(fr.payload))
		}
		if off, ok := cur.Last(); !ok || off != w.off {
			t.Fatalf("after frame %d: cursor (%d, %v), want %d", i, off, ok, w.off)
		}
	}
	if sub.QoS() != 2 || len(announced) != 1 || announced[0] != 2 {
		t.Fatalf("QoS %g, hook saw %v; want 2 once", sub.QoS(), announced)
	}
	if _, err := sub.next(); err == nil {
		t.Fatal("truncated offset frame accepted")
	}
	if off, _ := cur.Last(); off != 9 {
		t.Fatalf("a rejected frame moved the cursor to %d", off)
	}
}

// timeoutErr is a net.Error timeout, as a read deadline produces.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestReconnectStreamEndClasses pins the stream-end classification both
// the client and the edge's legs redial by: drain goodbyes and lost
// connections redial, a plain goodbye finishes, an eviction is terminal,
// and the caller's cancellation or a protocol error is returned as is.
// It also checks what a stream without a Backoff makes of each end.
func TestReconnectStreamEndClasses(t *testing.T) {
	read := func(f func(io.Writer) error) error {
		sub, _ := frameReader(t, f)
		_, err := sub.next()
		return err
	}
	cases := []struct {
		name  string
		err   error
		class endClass
	}{
		{"drain goodbye", read(frame(FrameGoodbye, goodbyeDrainPayload)), endRedial},
		{"finish goodbye", read(frame(FrameGoodbye, nil)), endFinish},
		{"eviction", read(frame(FrameError, []byte(evictPrefix+"too slow"))), endTerminal},
		{"remote error", read(frame(FrameError, []byte("boom"))), endOther},
		{"connection closed", read(func(io.Writer) error { return nil }), endRedial},
		{"truncated frame", read(func(w io.Writer) error { _, err := w.Write([]byte{FrameTransmission, 9, 0, 0, 0, 1}); return err }), endRedial},
		{"unexpected kind", read(frame(FrameHelloOK, nil)), endOther},
		{"net.ErrClosed", fmt.Errorf("server: receiving: %w", net.ErrClosed), endRedial},
		{"read deadline", fmt.Errorf("server: receiving: %w", timeoutErr{}), endRedial},
		{"cancelled", context.Canceled, endOther},
		{"deadline exceeded", context.DeadlineExceeded, endOther},
	}
	for _, c := range cases {
		if got := classifyEnd(c.err); got != c.class {
			t.Errorf("%s (%v): class %d, want %d", c.name, c.err, got, c.class)
		}
		if Redialable(c.err) != (c.class == endRedial) {
			t.Errorf("%s: Redialable disagrees with the class", c.name)
		}
	}

	// Without a Backoff nothing redials: a drain goodbye finishes the
	// stream like a plain one, an eviction latches, and a lost connection
	// is returned without ending the stream.
	for _, c := range []struct {
		name  string
		err   error
		want  error
		ended bool
	}{
		{"drain goodbye", ErrServerDraining, ErrStreamEnded, true},
		{"finish goodbye", ErrStreamEnded, ErrStreamEnded, true},
		{"eviction", remoteError([]byte(evictPrefix + "x")), ErrEvicted, true},
		{"lost connection", io.EOF, io.EOF, false},
	} {
		sub, _ := frameReader(t)
		st := NewStream(StreamConfig{})
		st.sub.Store(sub)
		_, err := st.recover(context.Background(), c.err)
		if !errors.Is(err, c.want) || st.Ended() != c.ended {
			t.Errorf("%s: recover = %v (ended %v), want %v (ended %v)", c.name, err, st.Ended(), c.want, c.ended)
		}
		if c.ended {
			if err := st.RecvInto(context.Background(), new(Delivery)); !errors.Is(err, c.want) {
				t.Errorf("%s: receive after the end = %v", c.name, err)
			}
		}
	}
}

// fixedNode resolves every dial to one node.
func fixedNode(name, addr string) func() (string, string, error) {
	return func() (string, string, error) { return name, addr, nil }
}

// testBackoff redials quickly.
var testBackoff = Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.2}

// TestReconnectDialTimeoutFor checks a dial's timeout takes the sooner
// of the configured one and the context's deadline, and stays positive
// once the deadline has passed (a zero timeout means the 5s default).
func TestReconnectDialTimeoutFor(t *testing.T) {
	if d := DialTimeoutFor(context.Background(), 0); d != 0 {
		t.Errorf("no deadline, no default: %v, want 0", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if d := DialTimeoutFor(ctx, time.Second); d != time.Second {
		t.Errorf("distant deadline: %v, want the configured 1s", d)
	}
	if d := DialTimeoutFor(ctx, 0); d <= time.Minute {
		t.Errorf("deadline with no configured timeout: %v, want about an hour", d)
	}
	past, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if d := DialTimeoutFor(past, 0); d <= 0 || d > time.Millisecond {
		t.Errorf("passed deadline: %v, want a tiny positive timeout", d)
	}
}

// TestResumeUnavailableFallsBackLive redials a stream whose cursor holds
// a position against a server with no durable log: the resume is
// rejected with ErrResumeUnavailable, and the redial rejoins live at
// once with the cursor reset. A stream that asked for history itself
// gets the rejection instead.
func TestResumeUnavailableFallsBackLive(t *testing.T) {
	srv := startServer(t, Config{})
	addr := srv.Addr().String()
	pub, err := DialPublisher(addr, "src", tuple.MustSchema("v"))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	ctx, cancel := ctxTimeout()
	defer cancel()

	st := NewStream(StreamConfig{
		Hello:   SubHello{App: "a", Source: "src", Spec: "DC1(v, 0.5, 0)"},
		Resolve: fixedNode("n0", addr),
		Backoff: &testBackoff,
	})
	if err := st.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.cur.advance(41) // as if offset 41 had been delivered
	st.Session().conn.Close()
	resumed, err := st.recover(ctx, fmt.Errorf("server: receiving: %w", io.EOF))
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("redial reports a resume the server cannot serve")
	}
	if _, ok := st.cur.Last(); ok {
		t.Fatal("cursor kept its position after the live fallback")
	}
	if n := srv.Counters().HandshakeRejects; n != 1 {
		t.Fatalf("HandshakeRejects = %d, want the one rejected resume", n)
	}

	hist := NewStream(StreamConfig{
		Hello:   SubHello{App: "b", Source: "src", Spec: "DC1(v, 0.5, 0)", Resume: true},
		Resolve: fixedNode("n0", addr),
		Backoff: &testBackoff,
	})
	if err := hist.Open(ctx); !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("history stream against a non-durable server: %v, want ErrResumeUnavailable", err)
	}
}

// TestReconnectOwnerChangeResetsCursor redials a stream after its
// resolver moved the source to another node: offsets name positions in
// the old node's log, so the redial rejoins the new owner live without
// asking it for a resume it would have to reject.
func TestReconnectOwnerChangeResetsCursor(t *testing.T) {
	var addrs [2]string
	for i := range addrs {
		srv := startServer(t, Config{})
		addrs[i] = srv.Addr().String()
		pub, err := DialPublisher(addrs[i], "src", tuple.MustSchema("v"))
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
	}
	var owner atomic.Int32
	st := NewStream(StreamConfig{
		Hello: SubHello{App: "a", Source: "src", Spec: "DC1(v, 0.5, 0)"},
		Resolve: func() (string, string, error) {
			i := owner.Load()
			return fmt.Sprintf("c%d", i), addrs[i], nil
		},
		Backoff: &testBackoff,
	})
	ctx, cancel := ctxTimeout()
	defer cancel()
	if err := st.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.cur.advance(9)
	owner.Store(1)
	st.Session().conn.Close()
	resumed, err := st.recover(ctx, fmt.Errorf("server: receiving: %w", io.EOF))
	if err != nil {
		t.Fatal(err)
	}
	if resumed || st.Owner() != "c1" {
		t.Fatalf("redial: resumed %v owner %q, want a live session on c1", resumed, st.Owner())
	}
	if _, ok := st.cur.Last(); ok {
		t.Fatal("cursor kept the old owner's offset")
	}
}

// TestResumeCursorSkipsFailedAppend fails the durable log under a live
// source: the deliveries whose appends failed still arrive, the server
// counts each failure, and — since such a frame goes out without an
// offset — the stream's cursor keeps the last offset the log holds.
func TestResumeCursorSkipsFailedAppend(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, Config{DataDir: dir})
	addr := srv.Addr().String()
	ctx, cancel := ctxTimeout()
	defer cancel()
	wave1, wave2 := stepSeries(t, 20, 0), stepSeries(t, 5, 20)
	pub, err := DialPublisher(addr, "src", wave1.Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	st := NewStream(StreamConfig{
		Hello:   SubHello{App: "a", Source: "src", Spec: "DC1(v, 0.5, 0)"},
		Resolve: fixedNode("n0", addr),
	})
	if err := st.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	publish := func(sr *tuple.Series) {
		t.Helper()
		for i := 0; i < sr.Len(); i++ {
			if err := pub.Publish(sr.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := pub.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var d Delivery
	recv := func(seq int) {
		t.Helper()
		if err := st.RecvInto(ctx, &d); err != nil {
			t.Fatalf("delivery %d: %v", seq, err)
		}
		if d.Tuple.Seq != seq {
			t.Fatalf("delivery seq %d, want %d", d.Tuple.Seq, seq)
		}
	}

	// Wave 1 is logged: tuples 0..18 release (19 is held back), each at
	// the offset equal to its sequence.
	publish(wave1)
	for seq := 0; seq < wave1.Len()-1; seq++ {
		recv(seq)
	}
	if off, ok := st.cur.Last(); !ok || off != 18 {
		t.Fatalf("cursor after wave 1 = (%d, %v), want 18", off, ok)
	}

	// Appends fail from here on: the closed log reopens its segment on
	// the next append, which is gone.
	if err := srv.b.Log().Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	publish(wave2)
	for seq := wave1.Len() - 1; seq < wave1.Len()+wave2.Len()-1; seq++ {
		recv(seq)
		if d.Offset != 0 {
			t.Fatalf("delivery %d claims offset %d the log does not hold", seq, d.Offset)
		}
	}
	if n := srv.Counters().LogAppendErrors; n != uint64(wave2.Len()) {
		t.Fatalf("LogAppendErrors = %d, want %d", n, wave2.Len())
	}
	if off, ok := st.cur.Last(); !ok || off != 18 {
		t.Fatalf("cursor after failed appends = (%d, %v), want the last good offset 18", off, ok)
	}
}

// TestRelayLegEvicted evicts an edge's upstream leg at the core: every
// local session sharing the leg is evicted with it (they are one member
// of the core's group), and a later subscriber of the group gets a fresh
// leg once the core has released the evicted one.
func TestRelayLegEvicted(t *testing.T) {
	core := startServer(t, Config{Federation: FederationConfig{Role: federate.RoleCore, Self: "c0"}})
	edge := startServer(t, Config{Federation: FederationConfig{
		Role:  federate.RoleEdge,
		Self:  "e0",
		Peers: []federate.Node{{Name: "c0", Addr: core.Addr().String()}},
	}})
	pub, err := DialPublisher(core.Addr().String(), "src", tuple.MustSchema("v"))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	var subs [2]*Subscriber
	for i := range subs {
		if subs[i], err = DialSubscriber(edge.Addr().String(), "app", "src", "DC1(v, 0.5, 0)"); err != nil {
			t.Fatal(err)
		}
		defer subs[i].Close()
	}
	var leg *subscriber
	waitFor(t, "the edge's upstream leg on the core", func() bool {
		core.mu.RLock()
		defer core.mu.RUnlock()
		for _, s := range core.subs {
			if s.relayEdge == "e0" {
				leg = s
			}
		}
		return leg != nil
	})
	leg.m.Evict("test eviction")
	for i, sub := range subs {
		ctx, cancel := ctxTimeout()
		_, err := sub.RecvContext(ctx)
		cancel()
		if !errors.Is(err, ErrEvicted) {
			t.Fatalf("edge session %d: %v, want ErrEvicted", i, err)
		}
	}
	waitFor(t, "the evicted leg to leave the edge", func() bool {
		legs, _ := edge.fed.counts()
		return legs == 0
	})
	again, err := DialSubscriber(edge.Addr().String(), "app", "src", "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatalf("subscribing after the eviction: %v", err)
	}
	again.Close()
}
