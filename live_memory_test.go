package gasf

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/shard"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// TestLiveSourceMemoryBounded is the live-memory regression test: a live
// source hands every release to its members, so after a long run its
// engine result holds no transmissions, latency samples or punctuations,
// and its release marks cover only the live window — on the embedded
// broker and through the TCP server alike. The Stats counters still cover
// the whole run and agree with what the member received.
func TestLiveSourceMemoryBounded(t *testing.T) {
	const n = 50000
	schema := tuple.MustSchema("v")
	tuples := make([]*tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.MustNew(schema, i, trace.Epoch.Add(time.Duration(i)*time.Millisecond), []float64{float64(i)})
	}
	t.Run("embedded", func(t *testing.T) {
		emb, err := NewEmbedded(WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		checkLiveMemory(t, emb, emb.b.Runtime(), schema, tuples)
	})
	t.Run("tcp", func(t *testing.T) {
		srv, err := StartServer(ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rb, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		checkLiveMemory(t, rb, srv.Runtime(), schema, tuples)
	})
}

// checkLiveMemory publishes tuples to one pass-all member of a fresh
// source on b, whose shard runtime is rt, and checks what the source's
// engine kept after the Sync barrier.
func checkLiveMemory(t *testing.T, b Broker, rt *shard.Runtime, schema *Schema, tuples []*Tuple) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer b.Close(ctx)
	const name = "live"
	src, err := b.OpenSource(ctx, name, schema)
	if err != nil {
		t.Fatal(err)
	}
	// Step-1 values against delta 0.5: every tuple is released, when the
	// next one arrives.
	sub, err := b.Subscribe(ctx, "sink", name, "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	go func() {
		var d Delivery
		for sub.RecvInto(ctx, &d) == nil {
			received.Add(1)
		}
	}()
	for rest := tuples; len(rest) > 0; {
		k := min(256, len(rest))
		if err := src.PublishBatch(ctx, rest[:k]); err != nil {
			t.Fatal(err)
		}
		rest = rest[k:]
	}
	if err := src.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// A control call runs after every published tuple and flushes what
	// they released before it returns, so the engine is settled here.
	marks := -1
	if err := rt.Control(name, func(e *core.Engine) error { marks = e.ReleaseMarks(); return nil }); err != nil {
		t.Fatal(err)
	}
	res := rt.Results()[name]
	if res == nil {
		t.Fatalf("no result for source %q", name)
	}
	if len(res.Transmissions) != 0 || len(res.Stats.Latencies) != 0 || len(res.Punctuations) != 0 {
		t.Errorf("live source kept %d transmissions, %d latency samples, %d punctuations",
			len(res.Transmissions), len(res.Stats.Latencies), len(res.Punctuations))
	}
	if marks > 2 {
		t.Errorf("engine holds %d release marks; the live window is one tuple", marks)
	}
	st := res.Stats
	want := int64(len(tuples) - 1) // the last tuple waits for its successor
	for received.Load() < want && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	got := int(received.Load())
	if st.Inputs != len(tuples) {
		t.Errorf("Stats.Inputs = %d, want %d", st.Inputs, len(tuples))
	}
	if st.Transmissions != got || st.Deliveries != got || st.DistinctOutputs != got {
		t.Errorf("Stats transmissions/deliveries/distinct = %d/%d/%d, member received %d",
			st.Transmissions, st.Deliveries, st.DistinctOutputs, got)
	}
	if got != int(want) {
		t.Errorf("member received %d deliveries, want %d", got, want)
	}
}
