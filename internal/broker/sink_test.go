package broker

import (
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// sinkFixture builds a Broker with registries only — no runtime, no
// goroutines — so the fan-out path can be driven deterministically.
type sinkFixture struct {
	b      *Broker
	src    *Source
	schema *tuple.Schema
}

func newSinkFixture(t *testing.T) *sinkFixture {
	t.Helper()
	schema, err := tuple.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: Drop}.withDefaults()
	// Telemetry sampling every event: the fan-out alloc gate below must
	// hold with the stage timers fully hot, not just at the default
	// 1-in-64 sampling.
	b := &Broker{
		cfg:     cfg,
		lg:      cfg.Logger,
		abort:   make(chan struct{}),
		tel:     telemetry.New(1),
		sources: make(map[string]*Source),
		subs:    make(map[string]map[string]*Sub),
	}
	src := &Source{b: b, name: "s1", schema: schema, lat: telemetry.NewLatencyPair()}
	b.sources["s1"] = src
	b.subs["s1"] = make(map[string]*Sub)
	return &sinkFixture{b: b, src: src, schema: schema}
}

// subscribe registers a queue-only member.
func (fx *sinkFixture) subscribe(app string, queue int) *Sub {
	sub := fx.b.newSub(app, "s1", fx.schema, queue)
	sub.joined = true
	fx.b.mu.Lock()
	fx.b.subs["s1"][app] = sub
	fx.src.subEpoch++
	fx.b.mu.Unlock()
	return sub
}

// unsubscribe removes the registry entry the way a departure does.
func (fx *sinkFixture) unsubscribe(sub *Sub) {
	sub.leave()
	fx.b.dropSubEntry(sub)
}

func (fx *sinkFixture) out(t *testing.T, seq int, dests ...string) shard.Out {
	t.Helper()
	ts := time.Unix(1, 0).Add(time.Duration(seq) * time.Millisecond)
	tp, err := tuple.New(fx.schema, seq, ts, []float64{float64(seq)})
	if err != nil {
		t.Fatal(err)
	}
	return shard.Out{Source: "s1", Tr: core.Transmission{Tuple: tp, Destinations: dests, ReleasedAt: ts}}
}

// take pops one frame from a member queue without releasing it.
func take(t *testing.T, sub *Sub) *Frame {
	t.Helper()
	select {
	case fr := <-sub.out:
		return fr
	default:
		t.Fatal("no frame queued")
		return nil
	}
}

// decodeFrame decodes a transmission frame into tuple and destinations.
func decodeFrame(t *testing.T, fx *sinkFixture, fr *Frame) (*tuple.Tuple, []string) {
	t.Helper()
	if len(fr.buf) < FrameHeaderLen || fr.buf[0] != KindTransmission {
		t.Fatalf("bad frame: %v", fr.buf)
	}
	tp, dests, n, err := wire.DecodeTransmission(fx.schema, fr.buf[FrameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fr.buf)-FrameHeaderLen {
		t.Fatalf("frame carries %d trailing bytes", len(fr.buf)-FrameHeaderLen-n)
	}
	return tp, dests
}

// TestSinkEncodesOnlyLiveLabels is the satellite gate: once a subscriber
// departs, transmissions the engine still addresses to it must not spend
// egress bytes on its label — remaining subscribers receive frames
// labeled with the live targets only.
func TestSinkEncodesOnlyLiveLabels(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 16)
	subB := fx.subscribe("b", 16)

	// Both live: the frame carries both labels.
	fx.b.sink([]shard.Out{fx.out(t, 1, "a", "b")})
	frA, frB := take(t, subA), take(t, subB)
	if frA != frB {
		t.Fatal("fan-out did not share one frame across subscriber queues")
	}
	_, dests := decodeFrame(t, fx, frA)
	if len(dests) != 2 || dests[0] != "a" || dests[1] != "b" {
		t.Fatalf("live labels %v, want [a b]", dests)
	}
	bothLen := len(frA.buf)
	frA.Release()
	frB.Release()

	// b departs; the engine still owes it an output decided earlier.
	fx.unsubscribe(subB)
	fx.b.sink([]shard.Out{fx.out(t, 2, "a", "b")})
	fr := take(t, subA)
	tp, dests := decodeFrame(t, fx, fr)
	if tp.Seq != 2 {
		t.Fatalf("seq %d, want 2", tp.Seq)
	}
	if len(dests) != 1 || dests[0] != "a" {
		t.Fatalf("labels after departure %v, want [a]", dests)
	}
	// The departed label stopped consuming egress bytes.
	want, err := wire.AppendTransmission(nil, tp, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fr.buf) - FrameHeaderLen; got != len(want) {
		t.Fatalf("frame payload %d bytes, want %d (single live label)", got, len(want))
	}
	if len(fr.buf) >= bothLen {
		t.Fatalf("frame with departed label (%dB) not smaller than dual-label frame (%dB)", len(fr.buf), bothLen)
	}
	fr.Release()

	// Nothing was queued for the departed subscriber.
	select {
	case <-subB.out:
		t.Fatal("departed subscriber received a frame")
	default:
	}
}

// TestSinkEpochInvalidatesCache verifies a subscription change between
// identical destination lists refreshes the cached targets: a rejoining
// app must start receiving again immediately.
func TestSinkEpochInvalidatesCache(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 16)
	fx.b.sink([]shard.Out{fx.out(t, 1, "a", "b")})
	take(t, subA).Release()

	// b joins between two transmissions with the same destination list.
	subB := fx.subscribe("b", 16)
	fx.b.sink([]shard.Out{fx.out(t, 2, "a", "b")})
	frA, frB := take(t, subA), take(t, subB)
	_, dests := decodeFrame(t, fx, frB)
	if len(dests) != 2 {
		t.Fatalf("labels %v after rejoin, want both", dests)
	}
	frA.Release()
	frB.Release()
}

// TestSinkSourceGone covers flushes racing a finished source: no frames,
// no panic.
func TestSinkSourceGone(t *testing.T) {
	fx := newSinkFixture(t)
	sub := fx.subscribe("a", 16)
	fx.b.mu.Lock()
	delete(fx.b.sources, "s1")
	fx.b.mu.Unlock()
	fx.b.sink([]shard.Out{fx.out(t, 1, "a")})
	select {
	case <-sub.out:
		t.Fatal("frame delivered for a retired source")
	default:
	}
}

// TestSinkBatchHandoff pins the per-flush hand-off contract: one sink
// flush carrying several transmissions reaches each member queue as all
// of its frames in release order, each transmission's one frame shared
// across the members it is addressed to.
func TestSinkBatchHandoff(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 16)
	subB := fx.subscribe("b", 16)
	fx.b.sink([]shard.Out{
		fx.out(t, 1, "a", "b"),
		fx.out(t, 2, "a"),
		fx.out(t, 3, "a", "b"),
	})
	if got := len(subA.out); got != 3 {
		t.Fatalf("a's queue holds %d frames, want 3", got)
	}
	var bA []*Frame
	for i, want := range []int{1, 2, 3} {
		bA = append(bA, take(t, subA))
		tp, _ := decodeFrame(t, fx, bA[i])
		if tp.Seq != want {
			t.Fatalf("a's frame %d is seq %d, want %d (release order)", i, tp.Seq, want)
		}
	}
	if got := len(subB.out); got != 2 {
		t.Fatalf("b's queue holds %d frames, want 2", got)
	}
	bB := []*Frame{take(t, subB), take(t, subB)}
	if bA[0] != bB[0] || bA[2] != bB[1] {
		t.Fatal("fan-out did not share frames across member queues")
	}
	for _, fr := range append(bA, bB...) {
		fr.Release()
	}
}

// TestSinkFanoutAllocs is the §8 regression gate for the shared-frame
// fan-out: steady-state sink → queue → release cycles must not allocate
// (the pooled frame and cached prefix absorb everything). A tolerance of
// half an alloc/op absorbs a GC emptying the sync.Pool mid-measurement.
func TestSinkFanoutAllocs(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 4)
	subB := fx.subscribe("b", 4)
	batch := []shard.Out{fx.out(t, 1, "a", "b")}
	cycle := func() {
		fx.b.sink(batch)
		take(t, subA).Release()
		take(t, subB).Release()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(2000, cycle)
	// Under -race, sync.Pool drops a quarter of its Puts by design, so
	// the pooled frame round-trip shows up as allocations; the widened
	// budget still catches per-frame or per-subscriber allocation
	// regressions.
	budget := 0.5
	if raceEnabled {
		budget = 4.5
	}
	if avg > budget {
		t.Fatalf("fan-out path allocates %.2f allocs/op in steady state, budget %.1f", avg, budget)
	}
}
