package server

import (
	"context"
	"math"
	"testing"
	"time"

	"gasf/internal/federate"
	"gasf/internal/tuple"
)

// TestQoSCodec pins the FrameQoS payload: a positive finite scale
// round-trips bit-exactly, and everything a governor can never announce
// — zero, negative, NaN, infinities, a payload of the wrong length — is
// rejected rather than applied.
func TestQoSCodec(t *testing.T) {
	for _, scale := range []float64{1, 2, 2.5, 8, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		got, err := DecodeQoS(EncodeQoS(scale))
		if err != nil {
			t.Fatalf("DecodeQoS(EncodeQoS(%g)): %v", scale, err)
		}
		if math.Float64bits(got) != math.Float64bits(scale) {
			t.Errorf("scale %g round-tripped to %g", scale, got)
		}
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"zero", EncodeQoS(0)},
		{"negative zero", EncodeQoS(math.Copysign(0, -1))},
		{"negative", EncodeQoS(-2)},
		{"NaN", EncodeQoS(math.NaN())},
		{"+Inf", EncodeQoS(math.Inf(1))},
		{"-Inf", EncodeQoS(math.Inf(-1))},
		{"empty", nil},
		{"short", EncodeQoS(2)[:7]},
		{"long", append(EncodeQoS(2), 0)},
	} {
		if scale, err := DecodeQoS(c.payload); err == nil {
			t.Errorf("%s: decoded %g, want rejection", c.name, scale)
		}
	}
}

// TestEdgeForwardsQoS checks that a QoS announcement the core sends on
// an edge's upstream leg reaches the subscribers the edge serves, and
// pins the degrade contract behind an edge: two local sessions of the
// same app and spec share one leg, the core's governor sees that leg as
// its single member, and so both sessions observe the scale it picks.
// The governor decision is injected on the leg's core member, so the
// test needs no timing-dependent overload to produce it.
func TestEdgeForwardsQoS(t *testing.T) {
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
	sub, err := DialSubscriber(edge.Addr().String(), "app", "src", "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub2, err := DialSubscriber(edge.Addr().String(), "app", "src", "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if q := sub.QoS(); q != 1 {
		t.Fatalf("QoS before any announcement = %g, want 1", q)
	}

	// The leg is the core's one subscriber session for both local
	// sessions, tagged with the edge.
	var legs []*subscriber
	waitFor(t, "the edge's upstream leg on the core", func() bool {
		core.mu.RLock()
		defer core.mu.RUnlock()
		legs = legs[:0]
		for _, s := range core.subs {
			if s.relayEdge == "e0" {
				legs = append(legs, s)
			}
		}
		return len(legs) > 0
	})
	if len(legs) != 1 {
		t.Fatalf("core serves %d relay members for one (app, spec), want 1", len(legs))
	}
	const scale = 2.5
	legs[0].m.SetQoS(scale)

	// Recv applies QoS frames as they pass; no transmission follows, so
	// each bounded Recv ends in a timeout once the frames are consumed.
	for i, s := range []*Subscriber{sub, sub2} {
		deadline := time.Now().Add(5 * time.Second)
		for s.QoS() != scale {
			if time.Now().After(deadline) {
				t.Fatalf("edge session %d QoS = %g, want %g", i, s.QoS(), scale)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			if d, err := s.RecvContext(ctx); err == nil {
				t.Fatalf("unexpected delivery %v", d.Tuple)
			}
			cancel()
		}
	}
}
