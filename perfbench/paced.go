package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gasf"
)

// Paced workloads (paced-tcp, edge-relay): one
// source connection and one subscriber connection over loopback TCP,
// driven by the open-loop pacer. A round is one fresh server set-up and
// one paced phase; a run repeats rounds for its measured time.

// pacedPhase is one round's paced phase.
const pacedPhase = 2 * time.Second

// pacedLead is the gap between the end of a round's set-up and the due
// time of its first input, in which the inputs are stamped.
const pacedLead = 30 * time.Millisecond

// pacedRound is one paced round's outcome, for the ladder and the hop.
type pacedRound struct {
	deliverP99 float64 // ns
	achieved   float64 // inputs per second over the phase
	growing    bool    // the undelivered backlog grew across the phase
}

type pacedJob struct {
	seed int64
}

type pacedNet struct {
	b       gasf.Broker
	servers []*gasf.Server
	edge    *gasf.Server
}

func (n *pacedNet) close() {
	if n.b != nil {
		n.b.Close(context.Background())
	}
	for _, s := range n.servers {
		s.Close()
	}
}

func startNet(relay bool) (*pacedNet, error) {
	n := &pacedNet{}
	if !relay {
		srv, err := gasf.StartServer(gasf.ServerConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		n.servers = append(n.servers, srv)
		n.b, err = gasf.Dial(srv.Addr().String())
		return n, err
	}
	core, err := gasf.StartServer(gasf.ServerConfig{Addr: "127.0.0.1:0", Federation: gasf.FederationConfig{Role: gasf.RoleCore, Self: "c0"}})
	if err != nil {
		return nil, err
	}
	n.servers = append(n.servers, core)
	cores := []gasf.FederationNode{{Name: "c0", Addr: core.Addr().String()}}
	if err := core.UpdatePeers(cores); err != nil {
		return n, err
	}
	edge, err := gasf.StartServer(gasf.ServerConfig{Addr: "127.0.0.1:0", Federation: gasf.FederationConfig{Role: gasf.RoleEdge, Self: "e0", Peers: cores}})
	if err != nil {
		return n, err
	}
	n.servers = append(n.servers, edge)
	n.edge = edge
	n.b, err = gasf.DialFederated(gasf.FormatPeers(cores), gasf.FormatPeers([]gasf.FederationNode{{Name: "e0", Addr: edge.Addr().String()}}))
	return n, err
}

// setupProbe starts the servers and opens the round's two connections,
// times it, and tears it all down again without traffic.
func (job *pacedJob) setupProbe(clk *clock, st *roundStats, relay bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	start := clk.now()
	net, err := startNet(relay)
	defer net.close()
	if err != nil {
		return err
	}
	if _, err := net.b.OpenSource(ctx, "paced", pacedSchema); err != nil {
		return err
	}
	t0 := clk.now()
	if _, err := net.b.Subscribe(ctx, "sink", "paced", pacedSpec); err != nil {
		return err
	}
	st.subscribeNs.add(float64(clk.now() - t0))
	st.setupNs.add(float64(clk.now() - start))
	return nil
}

// round runs one paced round at rate for phase and folds its
// measurements into st.
func (job *pacedJob) round(clk *clock, st *roundStats, traced bool, relay bool, rate float64, phase time.Duration, roundNo int) (pacedRound, error) {
	var out pacedRound
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	mainTr := st.newTracer(clk, traced)
	n := int(rate * phase.Seconds())
	in := pacedSource("paced", n, rate, job.seed+int64(roundNo))
	r := newSrcRun(in, &reference{})
	r.sent, r.paced = make([]int64, len(in.script)+1), true
	r.recv["sink"].recs = make([]rec, 0, n)

	heapBase := liveHeapMB()
	net, err := startNet(relay)
	defer net.close()
	if err != nil {
		return out, err
	}
	if r.src, err = net.b.OpenSource(ctx, in.name, in.schema); err != nil {
		return out, err
	}
	if err := r.join(ctx, net.b, clk, st, "sink", mainTr, traced, "server"); err != nil {
		return out, err
	}
	legs := 0
	if net.edge != nil {
		legs = net.edge.FederationStats().UpstreamLegs
	}

	// The schedule starts pacedLead from now; inputs are stamped with
	// their due times.
	base := clk.now() + int64(pacedLead)
	for i, t := range in.tuples {
		r.due[i+1] = base + int64(dueOffset(i, rate))
		t.TS = clk.base.Add(time.Duration(r.due[i+1]))
	}

	tr := st.newTracer(clk, traced)
	ar := r.recv["sink"]
	p := pacer{n: n, rate: rate, base: base}
	var undelivered []int // inputs sent but not yet delivered, per tick
	// Ticks keep to a fixed grid from base, so a late wake-up shortens
	// the next wait instead of shifting every later tick.
	next := base
	for p.sent < n {
		now := clk.now()
		if now < next {
			time.Sleep(time.Duration(next - now))
			now = clk.now()
		}
		next = max(next+int64(genTick), now)
		k := p.due(now)
		if k <= p.sent {
			continue
		}
		p.backlog = max(p.backlog, k-p.sent)
		tick := tr.begin("gen.tick", in.name, int64(p.sent), -1)
		sp := tr.begin("server.publish", in.name, int64(p.sent), tick)
		sentAt := clk.now()
		for i := p.sent; i < k; i++ {
			r.sent[i+1] = sentAt
		}
		err := r.src.PublishBatch(ctx, in.tuples[p.sent:k])
		tr.finish(sp)
		tr.finish(tick)
		if err != nil {
			return out, fmt.Errorf("publish %s: %w", in.name, err)
		}
		if traced {
			st.publishNs.add(float64(clk.now() - sentAt))
		}
		p.sent = k
		undelivered = append(undelivered, k-int(ar.n.Load()))
	}
	last := len(in.script)
	r.due[last] = clk.now()
	r.sent[last] = r.due[last]
	if err := r.src.Finish(ctx); err != nil {
		return out, fmt.Errorf("finish %s: %w", in.name, err)
	}
	<-r.done["sink"]
	if ar.err != nil {
		return out, fmt.Errorf("receive %s: %w", in.name, ar.err)
	}
	heap := liveHeapMB() - heapBase
	var bytesOut, evictions uint64
	for _, s := range net.servers {
		c := s.Counters()
		bytesOut += c.BytesOut
		evictions += c.SubscriberEvictions
	}
	if err := net.b.Close(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return out, fmt.Errorf("close broker: %w", err)
	}

	ref, err := buildReference(in)
	if err != nil {
		return out, err
	}
	r.ref = ref
	var lat roundLat
	st.check(r, &lat)
	out.deliverP99, _, _ = lat.deliver.p99()
	if span := r.sent[last-1] - base; span > 0 {
		out.achieved = float64(n) / (float64(span) / 1e9)
	}
	out.growing = backlogGrew(undelivered, rate)
	for i := range in.tuples {
		lat.late.add(float64(r.sent[i+1] - r.due[i+1]))
	}
	st.addRound(&lat)
	st.heapMB.add(heap)
	st.inputs += n
	st.distinct += distinctSeqs(r)
	st.tps.add(out.achieved)
	st.backlogMax = max(st.backlogMax, p.backlog)
	st.bytesOut += bytesOut
	st.evictions += evictions
	st.legs = max(st.legs, legs)
	if traced {
		st.stepNs = append(st.stepNs, ref.stepNs...)
	}
	st.layerInputs, st.layerRefs = []*sourceInput{in}, []*reference{ref}
	st.layerBatch = max(1, int(rate*genTick.Seconds()))
	return out, nil
}

// backlogGrew reports whether the inputs sent but not yet delivered grew
// from the first quarter of the phase to the last: a rate whose backlog
// grows cannot be sustained, however its latencies look.
func backlogGrew(undelivered []int, rate float64) bool {
	if len(undelivered) < 8 {
		return false
	}
	q := len(undelivered) / 4
	avg := func(s []int) float64 {
		var sum float64
		for _, n := range s {
			sum += float64(n)
		}
		return sum / float64(len(s))
	}
	first, lastQ := avg(undelivered[:q]), avg(undelivered[len(undelivered)-q:])
	// Slack of 5ms of input absorbs tick jitter.
	return lastQ > 2*first+rate*0.005
}
