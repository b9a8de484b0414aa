package solar

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/trace"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// deliveryLog records deliveries concurrently and renders them as a
// deterministic fingerprint: sorted by (source, app, seq, latency).
type deliveryLog struct {
	mu   sync.Mutex
	recs []string
}

func (l *deliveryLog) deliver(d Delivery) {
	l.mu.Lock()
	l.recs = append(l.recs, fmt.Sprintf("%s|%s|%d|%d", d.Source, d.App, d.Tuple.Seq, d.Latency))
	l.mu.Unlock()
}

func (l *deliveryLog) fingerprint() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Strings(l.recs)
	return fmt.Sprintf("%v", l.recs)
}

// resultBytes wire-encodes every transmission of the per-source results,
// in source order, for byte-identical comparison. A source whose result
// holds no transmission fails the test, so two empty results can never
// compare equal.
func resultBytes(t *testing.T, results map[string]*core.Result) []byte {
	t.Helper()
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf []byte
	for _, name := range names {
		if len(results[name].Transmissions) == 0 {
			t.Fatalf("source %s: result holds no transmissions to compare", name)
		}
		for _, tr := range results[name].Transmissions {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.ReleasedAt.UnixNano()))
			var err error
			buf, err = wire.AppendTransmission(buf, tr.Tuple, tr.Destinations)
			if err != nil {
				t.Fatalf("encoding: %v", err)
			}
		}
	}
	return buf
}

func namosSeries(t *testing.T, n int) *tuple.Series {
	t.Helper()
	sr, err := trace.NAMOS(trace.Config{N: n, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// fluoroFilter builds a DC1 filter over the NAMOS fluorometer attribute.
func fluoroFilter(t *testing.T, id string, delta, slack float64) filter.Filter {
	t.Helper()
	f, err := filter.NewDC1(id, "fluoro", delta, slack)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

type liveSub struct {
	app          string
	delta, slack float64
}

var liveSubs = []liveSub{{"A", 0.30, 0.15}, {"B", 0.50, 0.25}, {"C", 0.20, 0.10}}

// TestLiveSubscribeEquivalence is the dynamic-membership acceptance test:
// a churn-free run whose subscriptions all arrive through the
// live-subscribe path (DeployDynamic + SubscribeLive) must produce
// wire-byte-identical output to the static Subscribe+Deploy path.
func TestLiveSubscribeEquivalence(t *testing.T) {
	series := map[string]*tuple.Series{"fluoro-src": namosSeries(t, 800)}
	opts := core.Options{Algorithm: core.RG}

	run := func(live bool) (string, []byte) {
		net := testNet(t)
		s, err := NewSystem(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterSource("fluoro-src", net.NodeByIndex(0), opts); err != nil {
			t.Fatal(err)
		}
		mkSub := func(i int) Subscription {
			return Subscription{
				App:    liveSubs[i].app,
				Node:   net.NodeByIndex(i + 1),
				Filter: fluoroFilter(t, liveSubs[i].app, liveSubs[i].delta, liveSubs[i].slack),
			}
		}
		if live {
			if err := s.DeployDynamic(); err != nil {
				t.Fatal(err)
			}
			for i := range liveSubs {
				if err := s.SubscribeLive("fluoro-src", mkSub(i)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := range liveSubs {
				if err := s.Subscribe("fluoro-src", mkSub(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Deploy(); err != nil {
				t.Fatal(err)
			}
		}
		log := &deliveryLog{}
		results, err := s.RunSeries(series, log.deliver)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.recs) == 0 {
			t.Fatal("no deliveries to compare")
		}
		return log.fingerprint(), resultBytes(t, results)
	}

	staticFP, staticBytes := run(false)
	liveFP, liveBytes := run(true)
	if string(staticBytes) != string(liveBytes) {
		t.Fatalf("live-subscribe released bytes differ from static deploy (%d vs %d bytes)",
			len(liveBytes), len(staticBytes))
	}
	if staticFP != liveFP {
		t.Fatal("live-subscribe deliveries differ from static deploy")
	}
}

// TestLiveChurnMidRun joins and removes a subscriber while Serve is
// feeding, and checks the stable subscriber streams on undisturbed while
// the churned subscriber only sees tuples between its join and leave.
func TestLiveChurnMidRun(t *testing.T) {
	net := testNet(t)
	s, err := NewSystem(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSource("fluoro-src", net.NodeByIndex(0), core.Options{Algorithm: core.RG}); err != nil {
		t.Fatal(err)
	}
	err = s.Subscribe("fluoro-src", Subscription{
		App: "A", Node: net.NodeByIndex(1), Filter: fluoroFilter(t, "A", 0.30, 0.15),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(); err != nil {
		t.Fatal(err)
	}

	sr := namosSeries(t, 600)
	in := make(chan *tuple.Tuple)
	log := &deliveryLog{}
	done := make(chan error, 1)
	go func() {
		done <- s.Serve(context.Background(), map[string]<-chan *tuple.Tuple{"fluoro-src": in}, log.deliver)
	}()

	joinAt, leaveAt := 200, 400
	for i := 0; i < sr.Len(); i++ {
		switch i {
		case joinAt:
			err := s.SubscribeLive("fluoro-src", Subscription{
				App: "B", Node: net.NodeByIndex(2), Filter: fluoroFilter(t, "B", 0.50, 0.25),
			})
			if err != nil {
				t.Fatal(err)
			}
		case leaveAt:
			if err := s.UnsubscribeLive("fluoro-src", "B"); err != nil {
				t.Fatal(err)
			}
		}
		in <- sr.At(i)
	}
	close(in)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	aCount, firstB, lastB := 0, -1, -1
	for _, rec := range log.recs {
		var app string
		var seq int
		var lat int64
		if _, err := fmt.Sscanf(rec, "fluoro-src|%1s|%d|%d", &app, &seq, &lat); err != nil {
			t.Fatalf("bad record %q: %v", rec, err)
		}
		switch app {
		case "A":
			aCount++
		case "B":
			if firstB < 0 || seq < firstB {
				firstB = seq
			}
			if seq > lastB {
				lastB = seq
			}
		}
	}
	if aCount == 0 {
		t.Fatal("stable subscriber A received nothing")
	}
	if firstB < 0 {
		t.Fatal("joiner B received nothing between join and leave")
	}
	if firstB < joinAt {
		t.Fatalf("joiner B saw tuple %d from before its join at %d", firstB, joinAt)
	}
	if lastB >= leaveAt {
		t.Fatalf("departed B was delivered tuple %d from after its leave at %d", lastB, leaveAt)
	}
}

// TestLiveSubscribeErrors covers the live-path error surface.
func TestLiveSubscribeErrors(t *testing.T) {
	net := testNet(t)
	s, err := NewSystem(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSource("src", net.NodeByIndex(0), core.Options{}); err != nil {
		t.Fatal(err)
	}
	mkSub := func() Subscription {
		return Subscription{App: "A", Node: net.NodeByIndex(1), Filter: fluoroFilter(t, "A", 0.3, 0.15)}
	}
	if err := s.SubscribeLive("src", mkSub()); err == nil {
		t.Fatal("SubscribeLive before Deploy succeeded")
	}
	if err := s.DeployDynamic(); err != nil {
		t.Fatal(err)
	}
	if err := s.SubscribeLive("nope", mkSub()); err == nil {
		t.Fatal("SubscribeLive on unknown source succeeded")
	}
	if err := s.SubscribeLive("src", mkSub()); err != nil {
		t.Fatal(err)
	}
	if err := s.SubscribeLive("src", mkSub()); err == nil {
		t.Fatal("duplicate SubscribeLive succeeded")
	}
	if err := s.UnsubscribeLive("src", "ghost"); err == nil {
		t.Fatal("UnsubscribeLive of unknown app succeeded")
	}
	if err := s.UnsubscribeLive("src", "A"); err != nil {
		t.Fatal(err)
	}
}
