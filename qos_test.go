package gasf_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gasf"
	"gasf/internal/adapt"
)

// TestRemoteQoSDegradeRestore drives the degrade policy over TCP: a
// dialed subscriber with a tiny queue and a throttled reader sees the
// server's QoS announcements arrive (QoS > 1), and once the reader keeps
// up again the governor restores full fidelity (QoS back to 1). Small
// socket buffers on both ends make the reader's lag reach the server's
// member queue promptly.
func TestRemoteQoSDegradeRestore(t *testing.T) {
	srv, err := gasf.StartServer(gasf.ServerConfig{
		Policy: gasf.PolicyDegrade,
		Degrade: adapt.GovernorConfig{
			HiFrac:       0.5,
			LoFrac:       0.25,
			Cooldown:     2 * time.Millisecond,
			RestoreAfter: 40 * time.Millisecond,
		},
		SubscriberSendBuffer: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer srv.Shutdown(ctx)

	b, err := gasf.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	schema, err := gasf.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	src, err := b.OpenSource(ctx, "src", schema)
	if err != nil {
		t.Fatal(err)
	}
	// Slack 0 makes every tuple a closed singleton set: pass-all.
	sub, err := b.Subscribe(ctx, "slow", "src", "DC1(v, 0.5, 0)",
		gasf.WithQueueDepth(4), gasf.WithRecvBuffer(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	var slow atomic.Bool
	slow.Store(true)
	done := make(chan error, 1)
	go func() {
		for {
			_, err := sub.Recv(ctx)
			if err != nil {
				if errors.Is(err, gasf.ErrStreamEnded) {
					err = nil
				}
				done <- err
				return
			}
			if slow.Load() {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	seq := 0
	publish := func() {
		t.Helper()
		tp, err := gasf.NewTuple(schema, seq, time.Unix(0, 0).Add(time.Duration(seq)*time.Millisecond), []float64{float64(seq)})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Publish(ctx, tp); err != nil {
			t.Fatalf("publish %d: %v", seq, err)
		}
		seq++
	}
	deadline := time.Now().Add(30 * time.Second)
	// Phase 1: flood the throttled reader until an announcement lands.
	for sub.QoS() <= 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no degrade announcement reached the client after %d tuples", seq)
		}
		publish()
		time.Sleep(200 * time.Microsecond)
	}
	// Phase 2: the reader keeps up; a paced trickle carries the
	// governor's calm samples until it restores full fidelity.
	slow.Store(false)
	for sub.QoS() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("QoS stuck at %g after %d tuples", sub.QoS(), seq)
		}
		publish()
		time.Sleep(2 * time.Millisecond)
	}
	if err := src.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("recv: %v", err)
	}
}
