package gasf

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// White-box tests for the functional options and their plumbing into the
// embedded broker.

func TestOptionResolution(t *testing.T) {
	cfg, err := resolveBrokerConfig(false, []Option{
		WithShards(3),
		WithQueueDepth(64),
		WithFlushBatch(8),
		WithAlgorithm(PS),
		WithStrategy(Batched),
		WithBatchSize(10),
		WithCuts(50 * time.Millisecond),
		WithSlowPolicy(PolicyDrop),
		WithSubscriberQueue(33),
		WithMaxSubscriberQueue(999),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.engine.ShardCount != 3 || cfg.engine.QueueDepth != 64 || cfg.engine.FlushBatch != 8 {
		t.Errorf("runtime knobs wrong: %+v", cfg.engine)
	}
	if cfg.engine.Algorithm != PS || cfg.engine.Strategy != Batched || cfg.engine.BatchSize != 10 {
		t.Errorf("engine knobs wrong: %+v", cfg.engine)
	}
	if !cfg.engine.Cuts || cfg.engine.MaxDelay != 50*time.Millisecond {
		t.Errorf("cuts knobs wrong: %+v", cfg.engine)
	}
	if cfg.policy != PolicyDrop || cfg.subQueue != 33 || cfg.maxSubQueue != 999 {
		t.Errorf("delivery knobs wrong: %+v", cfg)
	}
}

func TestOptionScopeEnforcement(t *testing.T) {
	// Engine options are rejected by Dial...
	if _, err := Dial("localhost:0", WithShards(2)); err == nil {
		t.Error("Dial(WithShards) should fail")
	}
	if _, err := Dial("localhost:0", WithQueueDepth(4)); err == nil {
		t.Error("Dial(WithQueueDepth) should fail at broker scope")
	}
	if _, err := Dial("localhost:0", WithSlowPolicy(PolicyDrop)); err == nil {
		t.Error("Dial(WithSlowPolicy) should fail")
	}
	// ...and dial options by NewEmbedded.
	if _, err := NewEmbedded(WithDialTimeout(time.Second)); err == nil {
		t.Error("NewEmbedded(WithDialTimeout) should fail")
	}
	// Invalid values fail regardless of scope.
	if _, err := NewEmbedded(WithQueueDepth(-1)); err == nil {
		t.Error("negative queue depth should fail")
	}
	if _, err := NewEmbedded(WithCuts(0)); err == nil {
		t.Error("zero cut constraint should fail")
	}
	if _, err := NewEmbedded(WithBatchSize(0)); err == nil {
		t.Error("zero batch size should fail")
	}
	// Flow-gap expiry options: embedded-only, and the interval needs
	// the timeout.
	if _, err := Dial("localhost:0", WithSourceTimeout(time.Second)); err == nil {
		t.Error("Dial(WithSourceTimeout) should fail")
	}
	if _, err := NewEmbedded(WithSourceTimeout(0)); err == nil {
		t.Error("zero source timeout should fail")
	}
	if _, err := NewEmbedded(WithScanInterval(time.Millisecond)); err == nil {
		t.Error("WithScanInterval without WithSourceTimeout should fail")
	}
	if cfg, err := resolveBrokerConfig(false, []Option{
		WithSourceTimeout(time.Second), WithScanInterval(50 * time.Millisecond),
	}); err != nil || cfg.srcTimeout != time.Second || cfg.scanEvery != 50*time.Millisecond {
		t.Errorf("flow-gap options did not resolve: %+v err=%v", cfg, err)
	}
}

// TestWithEngineOptionsBridge checks the migration escape hatch: a full
// Options value flows through, and later options override fields.
func TestWithEngineOptionsBridge(t *testing.T) {
	base := Options{Algorithm: PS, ShardCount: 7, EmitPunctuations: true}
	cfg, err := resolveBrokerConfig(false, []Option{WithEngineOptions(base), WithShards(2)})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.engine.Algorithm != PS || !cfg.engine.EmitPunctuations {
		t.Errorf("engine options lost in bridge: %+v", cfg.engine)
	}
	if cfg.engine.ShardCount != 2 {
		t.Errorf("later option should override: ShardCount = %d", cfg.engine.ShardCount)
	}
}

// TestSubscriptionQueueDepthPropagates checks that WithQueueDepth on
// Subscribe reaches the embedded broker's delivery queue (explicit,
// defaulted, clamped).
func TestSubscriptionQueueDepthPropagates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := NewEmbedded(WithSubscriberQueue(9), WithMaxSubscriberQueue(50))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	schema, err := NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenSource(ctx, "src", schema); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe(ctx, "explicit", "src", "DC1(v, 0.5, 0)", WithQueueDepth(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.(*embeddedSub).queueDepth(); got != 5 {
		t.Errorf("explicit depth = %d, want 5", got)
	}
	sub, err = b.Subscribe(ctx, "defaulted", "src", "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.(*embeddedSub).queueDepth(); got != 9 {
		t.Errorf("defaulted depth = %d, want 9", got)
	}
	sub, err = b.Subscribe(ctx, "clamped", "src", "DC1(v, 0.5, 0)", WithQueueDepth(5000))
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.(*embeddedSub).queueDepth(); got != 50 {
		t.Errorf("clamped depth = %d, want 50", got)
	}
	if _, err := b.Subscribe(ctx, "bad", "src", "DC1(v, 0.5, 0)", WithQueueDepth(-3)); err == nil {
		t.Error("negative subscription queue depth should fail")
	}
	// The subscription reports the spec it joined with, canonically.
	if sp := sub.Spec(); sp.String() != "DC1(v, 0.5, 0)" {
		t.Errorf("Spec() = %q", sp.String())
	}
}

// TestBackoffSchedule pins the reconnect schedule: the nominal delay
// grows by Factor per attempt from Base, is capped at Max (also for
// attempts far past the cap), and every jittered delay lies in
// [1-Jitter, 1+Jitter) of the nominal one.
func TestBackoffSchedule(t *testing.T) {
	b, err := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 3, Jitter: 0.25}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	nominal := []time.Duration{10, 30, 80, 80, 80}
	for attempt, n := range nominal {
		n *= time.Millisecond
		lo, hi := time.Duration(float64(n)*0.75), time.Duration(float64(n)*1.25)
		for i := 0; i < 200; i++ {
			if d := b.Delay(attempt); d < lo || d >= hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, lo, hi)
			}
		}
	}
	if d := b.Delay(1 << 20); d >= 100*time.Millisecond {
		t.Errorf("attempt 2^20: delay %v escaped the cap", d)
	}
	// Jitter 0 takes the default 0.2; the defaults fill the other fields.
	def, err := Backoff{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if def != (Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second, Factor: 2, Jitter: 0.2}) {
		t.Errorf("defaults = %+v", def)
	}
}

// TestBackoffWaitCancel checks a reconnect wait returns when its delay
// elapses, and returns the context's error as soon as the context ends.
func TestBackoffWaitCancel(t *testing.T) {
	short := Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1, Jitter: 0.1}
	if err := short.Wait(context.Background(), 0); err != nil {
		t.Fatalf("elapsed wait: %v", err)
	}
	long := Backoff{Base: time.Hour, Max: time.Hour, Factor: 1, Jitter: 0.1}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := long.Wait(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancelled wait took %v", waited)
	}
}

// TestDurabilityOptions runs an embedded durable broker under each
// fsync policy option with a tiny segment size: the log rotates into
// several segment files, and the app, leaving and resuming from offset
// 0, receives every record in offset order (the replayed history, then
// the tail the finish releases live).
func TestDurabilityOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []DurabilityOption
	}{
		{"always", []DurabilityOption{WithSegmentBytes(256), WithFsync(FsyncAlways)}},
		{"interval", []DurabilityOption{WithSegmentBytes(256), WithFsync(FsyncInterval), WithFsyncInterval(time.Millisecond)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 60
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			dir := t.TempDir()
			b, err := NewEmbedded(WithDurability(dir, c.opts...))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close(ctx)
			schema, err := NewSchema("v")
			if err != nil {
				t.Fatal(err)
			}
			src, err := b.OpenSource(ctx, "src", schema)
			if err != nil {
				t.Fatal(err)
			}
			// Slack 0 makes every tuple a closed singleton set: pass-all.
			// The last tuple's set closes only when the source finishes.
			live, err := b.Subscribe(ctx, "live", "src", "DC1(v, 0.5, 0)")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				tp, err := NewTuple(schema, i, time.Unix(0, 0).Add(time.Duration(i)*time.Millisecond), []float64{float64(i)})
				if err != nil {
					t.Fatal(err)
				}
				if err := src.Publish(ctx, tp); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n-1; i++ {
				if _, err := live.Recv(ctx); err != nil {
					t.Fatalf("live recv %d: %v", i, err)
				}
			}
			segs, err := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 2 {
				t.Errorf("%d segment files, want several at a 256-byte segment size", len(segs))
			}

			// Replay serves the records addressed to the app, so the same
			// app leaves and resumes from the log's first record.
			if err := live.Close(ctx); err != nil {
				t.Fatal(err)
			}
			res, err := b.Subscribe(ctx, "live", "src", "DC1(v, 0.5, 0)", WithResumeFrom(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Finish(ctx); err != nil {
				t.Fatal(err)
			}
			for want := uint64(0); ; want++ {
				d, err := res.Recv(ctx)
				if errors.Is(err, ErrStreamEnded) {
					if want != n {
						t.Fatalf("resumed subscription got %d records, want %d", want, n)
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if d.Offset != want || d.Tuple.Seq != int(want) {
					t.Fatalf("record %d: offset %d seq %d", want, d.Offset, d.Tuple.Seq)
				}
			}
		})
	}
}
