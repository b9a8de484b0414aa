package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gasf/internal/shard"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// ledger snapshots the frame pool traffic; balanced reports whether every
// frame checked out since the snapshot went back.
type ledger struct{ gets, puts uint64 }

func openLedger(t *testing.T) ledger {
	t.Helper()
	FrameStats.Enabled.Store(true)
	t.Cleanup(func() { FrameStats.Enabled.Store(false) })
	return ledger{FrameStats.Gets.Load(), FrameStats.Puts.Load()}
}

func (l ledger) check(t *testing.T) uint64 {
	t.Helper()
	gets, puts := FrameStats.Gets.Load()-l.gets, FrameStats.Puts.Load()-l.puts
	if gets != puts {
		t.Errorf("frame pool leak: %d gets, %d puts (%d stranded)", gets, puts, int64(gets)-int64(puts))
	}
	return gets
}

// TestFramePoolJoinFailure pins the join-failure exit: when a member the
// sink has queued a frame to fails its join, the member close must hand
// the frame back to the pool.
func TestFramePoolJoinFailure(t *testing.T) {
	led := openLedger(t)
	fx := newSinkFixture(t)
	sub := fx.subscribe("a", 4)
	fx.b.sink([]shard.Out{fx.out(t, 1, "a")})
	if len(sub.out) != 1 {
		t.Fatalf("member queue holds %d frames, want 1", len(sub.out))
	}
	fx.b.failJoin(sub, errors.New("shard: source \"s1\" already finished"))
	if got := led.check(t); got != 1 {
		t.Fatalf("ledger saw %d frames, want 1", got)
	}
	fx.b.mu.RLock()
	registered := fx.b.subs["s1"]["a"] != nil
	fx.b.mu.RUnlock()
	if registered {
		t.Fatal("failed member still registered")
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("failed member not closed")
	}
}

// TestQueueCountsDeliveries pins the queue unit on both member kinds: a
// drop-policy member of depth 2 holds at most 2 deliveries after a flush
// that releases 5 for it, and counts the other 3 as dropped.
func TestQueueCountsDeliveries(t *testing.T) {
	for _, kind := range []string{"group", "relay"} {
		t.Run(kind, func(t *testing.T) {
			led := openLedger(t)
			fx := newSinkFixture(t)
			var sub *Sub
			if kind == "group" {
				sub = fx.subscribe("a", 2)
				var flush []shard.Out
				for seq := 1; seq <= 5; seq++ {
					flush = append(flush, fx.out(t, seq, "a"))
				}
				fx.b.sink(flush)
			} else {
				sub = fx.b.NewRelayMember("a", "s1", 2, func() {})
				for seq := 1; seq <= 5; seq++ {
					fr := NewFrame(KindTransmission, []byte{byte(seq)}, 0, nil)
					fr.Retain(1)
					sub.Send(fr)
				}
			}
			if got := sub.QueueLen(); got != 2 {
				t.Fatalf("queue holds %d deliveries, want 2", got)
			}
			if got := sub.Dropped(); got != 3 {
				t.Fatalf("dropped %d deliveries, want 3", got)
			}
			fx.unsubscribe(sub)
			led.check(t)
		})
	}
}

// TestRecvIntoAllocs is the alloc gate of the embedded delivery point:
// steady-state sink → RecvInto cycles decode the shared frame into the
// caller's Delivery without allocating.
func TestRecvIntoAllocs(t *testing.T) {
	fx := newSinkFixture(t)
	sub := fx.subscribe("a", 4)
	fx.subscribe("b", 4).leave()
	batch := []shard.Out{fx.out(t, 1, "a", "b")}
	ctx := context.Background()
	var d Delivery
	cycle := func() {
		fx.b.sink(batch)
		if err := sub.RecvInto(ctx, &d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if d.Tuple.Seq != 1 || len(d.Destinations) != 2 || d.Destinations[0] != "a" || d.Destinations[1] != "b" {
		t.Fatalf("decoded seq %d labels %v, want seq 1 labels [a b]", d.Tuple.Seq, d.Destinations)
	}
	avg := testing.AllocsPerRun(2000, cycle)
	budget := 0.5
	if raceEnabled {
		budget = 4.5
	}
	if avg > budget {
		t.Fatalf("embedded RecvInto path allocates %.2f allocs/op in steady state, budget %.1f", avg, budget)
	}
}

// TestFramePoolBalancedEmbeddedChurn is the embedded twin of the
// server's frame-leak detector: under the drop policy with depth-1
// queues and drop-count eviction, with a never-reading subscriber, churners
// leaving mid-stream and a Close whose context expires, every frame must
// be back in the pool once Close returns.
func TestFramePoolBalancedEmbeddedChurn(t *testing.T) {
	led := openLedger(t)
	b, err := New(Config{Policy: Drop, SubscriberQueue: 1, EvictAfterDrops: 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	const (
		sources  = 2
		churners = 3
	)
	schema := tuple.MustSchema("v")
	var pubs, churn sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, sources*(churners+1))
	for si := 0; si < sources; si++ {
		name := fmt.Sprintf("src%d", si)
		src, err := b.OpenSource(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		// A subscriber that never reads: its depth-1 queue overflows at
		// once, so it is evicted past the drop threshold.
		if _, err := b.Subscribe(ctx, "stuck", name, passAllSpec(t), SubOptions{}); err != nil {
			t.Fatal(err)
		}
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				tp := tuple.MustNew(schema, seq, trace.Epoch.Add(time.Duration(seq)*time.Millisecond), []float64{float64(seq)})
				if err := src.Publish(ctx, tp); err != nil {
					errs <- fmt.Errorf("%s publish %d: %w", name, seq, err)
					return
				}
			}
		}()
		for ci := 0; ci < churners; ci++ {
			churn.Add(1)
			go func(app string) {
				defer churn.Done()
				for round := 0; round < 4; round++ {
					sub, err := b.Subscribe(ctx, app, name, passAllSpec(t), SubOptions{})
					if err != nil {
						errs <- fmt.Errorf("%s subscribe: %w", app, err)
						return
					}
					var d Delivery
					for i := 0; i < 40; i++ {
						if sub.RecvInto(ctx, &d) != nil {
							break
						}
					}
					if err := sub.Close(ctx); err != nil {
						errs <- fmt.Errorf("%s leave: %w", app, err)
						return
					}
				}
			}(fmt.Sprintf("churn%d", ci))
		}
	}
	churn.Wait()
	close(stop)
	pubs.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The sources are still open: Close has to finish them, and its
	// context runs out first.
	closeCtx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if err := b.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	if got := led.check(t); got == 0 {
		t.Error("ledger recorded no traffic; the storm did not exercise the pool")
	}
	if st := b.Stats(); st.Evictions == 0 {
		t.Errorf("no subscriber was evicted (stats %+v)", st)
	}
}
