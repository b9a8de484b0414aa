package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestP99StatesPercentileAndCount(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	v, pct, n := s.p99()
	if v != 990 || pct != 99 || n != 1000 {
		t.Errorf("p99 of 1..1000 = %v at %v%% of %d, want 990 at 99%% of 1000", v, pct, n)
	}
	v, pct, n = s[:500].p99()
	if v != 475 || pct != 95 || n != 500 {
		t.Errorf("p99 of 1..500 = %v at %v%% of %d, want the 95th percentile 475 of 500", v, pct, n)
	}
	if m := (samples{3, 1, 2}).median(); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "tick", start: 0, end: 100, parent: -1},
		{name: "publish", start: 10, end: 30, parent: 0},
		{name: "publish", start: 20, end: 50, parent: 0},
		{name: "publish", start: 90, end: 120, parent: 0}, // overruns its parent
		{name: "recv", start: 5, end: 8, parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{50, 20, 30, 30, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	rows := summarise([]*tracer{{spans: spans}})
	if len(rows) != 3 || rows[0].name != "publish" || rows[0].count != 3 || rows[0].selfNs != 80 || rows[2].selfNs != 50 {
		t.Errorf("summarise = %+v", rows)
	}
}

// A pass-all spec releases each tuple when the next one arrives; the last
// one is released by the finish.
func TestReleasingInput(t *testing.T) {
	in := pacedSource("p", 50, 10000, 1)
	ref, err := buildReference(in)
	if err != nil {
		t.Fatal(err)
	}
	inputEv := in.inputEvent()
	if len(ref.txs) != 50 {
		t.Fatalf("%d transmissions, want 50", len(ref.txs))
	}
	for i, tx := range ref.txs {
		want := len(in.script)
		if i+1 < 50 {
			want = inputEv[i+1]
		}
		if tx.seq != i || tx.releaser != want {
			t.Errorf("tx %d: seq %d released by event %d, want seq %d released by %d", i, tx.seq, tx.releaser, i, want)
		}
	}
}

// The artifact the benchmark avoids: with a 5 ms tick under DC1(v, 0.5,
// 0), the last tuple of each tick's burst is released only when the next
// burst arrives, so latency timed from each tuple's own send instant has a
// p99 of about one tick even with zero transit. Timed from the input that
// released it, the same deliveries take no time at all, and the engine's
// hold (due time of the releasing input minus the tuple's own) is one
// inter-arrival gap, not a tick.
func TestTickArtifact(t *testing.T) {
	const rate, tick = 10000.0, 5 * time.Millisecond
	in := pacedSource("p", 20000, rate, 1)
	ref, err := buildReference(in)
	if err != nil {
		t.Fatal(err)
	}
	due := func(i int) int64 { return int64(dueOffset(i, rate)) }
	// Every input is sent at the end of the tick it fell due in, and
	// received the instant the input that releases it is sent.
	sent := func(i int) int64 { return (due(i)/int64(tick) + 1) * int64(tick) }
	var own, releasing, hold samples
	for _, tx := range ref.txs {
		if tx.releaser == len(in.script) {
			continue
		}
		r := in.script[tx.releaser].input
		recv := sent(r)
		own.add(float64(recv - sent(tx.seq)))
		releasing.add(float64(recv - sent(r)))
		hold.add(float64(due(r) - due(tx.seq)))
	}
	own99, _, _ := own.p99()
	rel99, _, _ := releasing.p99()
	hold99, _, _ := hold.p99()
	if own99 < float64(tick) {
		t.Errorf("own-send p99 %v, want the %v tick", time.Duration(own99), tick)
	}
	if rel99 != 0 {
		t.Errorf("releasing-input p99 %v, want 0 with zero transit", time.Duration(rel99))
	}
	if hold99 > float64(time.Millisecond) {
		t.Errorf("hold p99 %v: at 10k/s the next input is due 0.1ms later", time.Duration(hold99))
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	build := func(seed int64) (*sourceInput, *sourceInput) {
		a, err := namosSource("a", 3000, seed)
		if err != nil {
			t.Fatal(err)
		}
		churnScript(a, closedBatch, rand.New(rand.NewSource(seed)))
		return a, pacedSource("p", 100, baseRate, seed)
	}
	a1, p1 := build(7)
	a2, p2 := build(7)
	a3, p3 := build(8)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(p1, p2) {
		t.Error("the same seed built different inputs")
	}
	if reflect.DeepEqual(a1.tuples, a3.tuples) || reflect.DeepEqual(p1.tuples, p3.tuples) {
		t.Error("different seeds built the same tuples")
	}
}

func TestMismatches(t *testing.T) {
	ref := &reference{txs: []refTx{{seq: 1, key: 10}, {seq: 2, key: 20}, {seq: 3, key: 30}}}
	want := []int32{0, 1, 2}
	ok := []rec{{seq: 1, key: 10}, {seq: 2, key: 20}, {seq: 3, key: 30}}
	if n := mismatches("ok", ref, want, ok); n != 0 {
		t.Errorf("identical: %d mismatches", n)
	}
	if n := mismatches("short", ref, want, ok[:2]); n != 1 {
		t.Errorf("one missing: %d mismatches, want 1", n)
	}
	wrong := []rec{{seq: 1, key: 10}, {seq: 2, key: 21}, {seq: 3, key: 30}, {seq: 4, key: 40}}
	if n := mismatches("wrong", ref, want, wrong); n != 2 {
		t.Errorf("one wrong label, one extra: %d mismatches, want 2", n)
	}
}

// BENCHMARK.json and the catalogue name the same metrics and workloads.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloadWhy[w.Name] != w.Why {
			t.Errorf("workload %s: why differs from the catalogue", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}
