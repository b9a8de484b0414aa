package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gasf"
	"gasf/internal/tuple"
)

// Embedded workloads (groups, durable-resume, durable-churn): an in-process broker fed by
// at most two publisher goroutines in a closed loop of PublishBatch calls,
// one receiving goroutine per subscription. A round is one fixed job on a
// fresh broker; a run repeats rounds for its measured time and reports
// medians across rounds.

// closedBatch is the closed loop's PublishBatch size.
const closedBatch = 256

// roundTimeout bounds one round; a round that has not finished by then
// has a stuck delivery and fails the run.
const roundTimeout = 60 * time.Second

// appRecv collects one app's live deliveries across its sessions. The
// sessions are sequential, so one goroutine appends at a time.
type appRecv struct {
	recs []rec
	n    atomic.Int64
	err  error
}

func receive(ctx context.Context, clk *clock, sub gasf.Subscription, ar *appRecv, tr *tracer, spanName string) {
	var d gasf.Delivery
	for {
		sp := tr.begin(spanName, sub.Source(), -1, -1)
		err := sub.RecvInto(ctx, &d)
		at := clk.now()
		tr.finish(sp)
		if err != nil {
			if !errors.Is(err, gasf.ErrStreamEnded) {
				ar.err = err
			}
			return
		}
		if sp >= 0 {
			tr.spans[sp].seq = int64(d.Tuple.Seq)
		}
		ar.recs = append(ar.recs, rec{seq: int32(d.Tuple.Seq), key: labelKey(d.Destinations), at: at})
		ar.n.Add(1)
	}
}

// srcRun is one source's state in a round.
type srcRun struct {
	in   *sourceInput
	ref  *reference
	src  gasf.Source
	due  []int64 // per script event (+ finish): when it was issued
	sent []int64 // per script event: when its batch went to the program
	// paced marks an open-loop source, whose inputs are sent after they
	// fall due; in a closed loop sent is due.
	paced bool
	recv  map[string]*appRecv
	subs  map[string]gasf.Subscription
	done  map[string]chan struct{}
}

func newSrcRun(in *sourceInput, ref *reference) *srcRun {
	s := &srcRun{
		in: in, ref: ref,
		due:  make([]int64, len(in.script)+1),
		recv: map[string]*appRecv{},
		subs: map[string]gasf.Subscription{},
		done: map[string]chan struct{}{},
	}
	s.sent = s.due
	for _, app := range in.apps {
		s.recv[app] = &appRecv{recs: make([]rec, 0, len(ref.live[app]))}
	}
	return s
}

// roundStats accumulates one run's measurements.
type roundStats struct {
	setupNs, tps, heapMB samples
	// Per-round quantiles of the round's latencies (ns): a run keeps no
	// per-delivery samples, so its heap, and with it the collector's
	// pacing of the program, stays flat from round to round.
	deliverP50, deliverP99 samples
	transitP50, transitP99 samples
	lateP50, lateP99       samples
	holdP50                samples
	subscribeNs, closeNs   samples
	publishNs              samples
	inputs, distinct       int
	attempted, failed      int
	backlogMax             int
	replayed               int
	replayNs               int64
	resumeFirstNs          samples
	departureOwed          int
	producerParks          uint64
	drops                  uint64
	bytesOut, evictions    uint64
	legs                   int
	stepNs                 samples
	layerInputs            []*sourceInput
	layerRefs              []*reference
	layerBatch             int
	tracers                []*tracer
	spanBudget             *atomic.Int64
	mu                     sync.Mutex
}

func (st *roundStats) newTracer(clk *clock, on bool) *tracer {
	if !on {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.spanBudget == nil {
		st.spanBudget = new(atomic.Int64)
		st.spanBudget.Store(maxSpans)
	}
	t := &tracer{clock: clk, budget: st.spanBudget}
	st.tracers = append(st.tracers, t)
	return t
}

// join subscribes app and starts its receiver.
func (s *srcRun) join(ctx context.Context, b gasf.Broker, clk *clock, st *roundStats, app string, tr *tracer, traced bool, layer string) error {
	sp := tr.begin(layer+".subscribe", s.in.name, -1, -1)
	t0 := clk.now()
	sub, err := b.Subscribe(ctx, app, s.in.name, s.in.specs[app])
	dt := clk.now() - t0
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("subscribe %s/%s: %w", s.in.name, app, err)
	}
	st.mu.Lock()
	st.subscribeNs.add(float64(dt))
	st.mu.Unlock()
	s.subs[app] = sub
	done := make(chan struct{})
	s.done[app] = done
	rt := st.newTracer(clk, traced)
	go func() {
		defer close(done)
		receive(ctx, clk, sub, s.recv[app], rt, layer+".recv")
	}()
	return nil
}

// leave waits until app has received everything sent to it so far, then
// closes its subscription and waits for its receiver to stop. The
// outputs the departure releases are timed from the Close call, stored in
// *due.
func (s *srcRun) leave(ctx context.Context, clk *clock, st *roundStats, app string, want int, tr *tracer, due *int64) error {
	ar := s.recv[app]
	for ar.n.Load() < int64(want) {
		if ctx.Err() != nil {
			return fmt.Errorf("%s/%s: received %d of %d deliveries before leaving", s.in.name, app, ar.n.Load(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
	sp := tr.begin("broker.close", s.in.name, -1, -1)
	t0 := clk.now()
	*due = t0
	err := s.subs[app].Close(ctx)
	dt := clk.now() - t0
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("close %s/%s: %w", s.in.name, app, err)
	}
	st.mu.Lock()
	st.closeNs.add(float64(dt))
	st.mu.Unlock()
	<-s.done[app]
	delete(s.subs, app)
	return nil
}

// leadingAdds is the number of joins at the start of the script; they
// are part of set-up.
func leadingAdds(script []event) int {
	i := 0
	for i < len(script) && script[i].kind == evAdd {
		i++
	}
	return i
}

// publish runs the script after its leading joins: steps go out in
// batches of closedBatch, each issued when the previous call returns.
func (s *srcRun) publish(ctx context.Context, b gasf.Broker, clk *clock, st *roundStats, tr *tracer, traced bool) error {
	sc := s.in.script
	buf := make([]*tuple.Tuple, 0, closedBatch)
	for i := leadingAdds(sc); i < len(sc); {
		switch sc[i].kind {
		case evStep:
			j := i
			buf = buf[:0]
			for j < len(sc) && sc[j].kind == evStep && len(buf) < closedBatch {
				buf = append(buf, s.in.tuples[sc[j].input])
				j++
			}
			sp := tr.begin("broker.publish", s.in.name, int64(sc[i].input), -1)
			t0 := clk.now()
			for k := i; k < j; k++ {
				s.due[k] = t0
			}
			err := s.src.PublishBatch(ctx, buf)
			dt := clk.now() - t0
			tr.finish(sp)
			if err != nil {
				return fmt.Errorf("publish %s: %w", s.in.name, err)
			}
			if traced {
				st.mu.Lock()
				st.publishNs.add(float64(dt))
				st.mu.Unlock()
			}
			i = j
		case evAdd:
			s.due[i] = clk.now()
			if err := s.join(ctx, b, clk, st, sc[i].app, tr, traced, "broker"); err != nil {
				return err
			}
			i++
		case evRemove:
			if err := s.leave(ctx, clk, st, sc[i].app, s.ref.waitFor[i], tr, &s.due[i]); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// embeddedJob is the fixed job of one embedded round.
type embeddedJob struct {
	inputs  []*sourceInput
	refs    []*reference
	durable bool
	dataDir string
}

func (job *embeddedJob) round(clk *clock, st *roundStats, traced bool, roundNo int) error {
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	opts := []gasf.Option{gasf.WithShards(2)}
	var dir string
	if job.durable {
		dir = filepath.Join(job.dataDir, fmt.Sprintf("round%d", roundNo))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, gasf.WithDurability(dir))
	}
	mainTr := st.newTracer(clk, traced)

	heapBase := liveHeapMB()
	b, err := gasf.NewEmbedded(opts...)
	if err != nil {
		return err
	}
	defer b.Close(context.Background())
	runs := make([]*srcRun, len(job.inputs))
	for i, in := range job.inputs {
		runs[i] = newSrcRun(in, job.refs[i])
		if runs[i].src, err = b.OpenSource(ctx, in.name, in.schema); err != nil {
			return err
		}
		for _, ev := range in.script[:leadingAdds(in.script)] {
			if err := runs[i].join(ctx, b, clk, st, ev.app, mainTr, traced, "broker"); err != nil {
				return err
			}
		}
	}

	start := clk.now()
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r *srcRun) {
			defer wg.Done()
			tr := st.newTracer(clk, traced)
			if errs[i] = r.publish(ctx, b, clk, st, tr, traced); errs[i] != nil || job.durable {
				return
			}
			r.due[len(r.in.script)] = clk.now()
			if err := r.src.Finish(ctx); err != nil {
				errs[i] = fmt.Errorf("finish %s: %w", r.in.name, err)
			}
		}(i, r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, r := range runs {
		for _, done := range r.done {
			<-done
		}
	}
	elapsed := clk.now() - start
	for _, r := range runs {
		for app, ar := range r.recv {
			if ar.err != nil {
				return fmt.Errorf("receive %s/%s: %w", r.in.name, app, ar.err)
			}
		}
	}

	if job.durable {
		if err := job.resume(ctx, b, clk, st, runs, mainTr); err != nil {
			return err
		}
	}
	heap := liveHeapMB() - heapBase

	var parks, drops uint64
	for _, m := range b.Metrics() {
		parks += m.ProducerParks
		drops += m.Dropped
	}
	if err := b.Close(ctx); err != nil {
		return fmt.Errorf("close broker: %w", err)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.heapMB.add(heap)
	inputs := 0
	var lat roundLat
	for _, r := range runs {
		inputs += len(r.in.tuples)
		st.distinct += distinctSeqs(r)
		st.check(r, &lat)
	}
	st.addRound(&lat)
	st.inputs += inputs
	st.tps.add(float64(inputs) / (float64(elapsed) / 1e9))
	st.producerParks += parks
	st.drops += drops
	return nil
}

// setupProbe sets up a round's broker, sources and first subscriptions,
// times it, and tears it all down again without traffic.
func (job *embeddedJob) setupProbe(clk *clock, st *roundStats, probe int) error {
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	opts := []gasf.Option{gasf.WithShards(2)}
	if job.durable {
		dir := filepath.Join(job.dataDir, fmt.Sprintf("probe%d", probe))
		defer os.RemoveAll(dir)
		opts = append(opts, gasf.WithDurability(dir))
	}
	start := clk.now()
	b, err := gasf.NewEmbedded(opts...)
	if err != nil {
		return err
	}
	defer b.Close(context.Background())
	for _, in := range job.inputs {
		if _, err := b.OpenSource(ctx, in.name, in.schema); err != nil {
			return err
		}
		for _, ev := range in.script[:leadingAdds(in.script)] {
			t0 := clk.now()
			if _, err := b.Subscribe(ctx, ev.app, in.name, in.specs[ev.app]); err != nil {
				return err
			}
			st.subscribeNs.add(float64(clk.now() - t0))
		}
	}
	st.setupNs.add(float64(clk.now() - start))
	return b.Close(ctx)
}

// resume re-subscribes every app from offset 0 and drains its history,
// one app at a time.
func (job *embeddedJob) resume(ctx context.Context, b gasf.Broker, clk *clock, st *roundStats, runs []*srcRun, tr *tracer) error {
	start := clk.now()
	replayed := 0
	for _, r := range runs {
		for _, app := range r.in.apps {
			want := r.ref.logged[app]
			sp := tr.begin("broker.resume", r.in.name, -1, -1)
			t0 := clk.now()
			sub, err := b.Subscribe(ctx, app, r.in.name, r.in.specs[app], gasf.WithResumeFrom(0))
			if err != nil {
				tr.finish(sp)
				return fmt.Errorf("resume %s/%s: %w", r.in.name, app, err)
			}
			got := make([]rec, 0, len(want))
			var d gasf.Delivery
			for len(got) < len(want) {
				if err := sub.RecvInto(ctx, &d); err != nil {
					tr.finish(sp)
					return fmt.Errorf("replay %s/%s after %d of %d: %w", r.in.name, app, len(got), len(want), err)
				}
				at := clk.now()
				if len(got) == 0 {
					st.resumeFirstNs.add(float64(at - t0))
				}
				got = append(got, rec{seq: int32(d.Tuple.Seq), key: labelKey(d.Destinations), at: at})
			}
			tr.finish(sp)
			if err := sub.Close(ctx); err != nil {
				return fmt.Errorf("close resumed %s/%s: %w", r.in.name, app, err)
			}
			bad := mismatches("replay "+r.in.name+"/"+app, r.ref, want, got)
			st.mu.Lock()
			st.attempted += len(want)
			st.failed += bad
			st.departureOwed += len(want) - len(r.ref.live[app])
			st.mu.Unlock()
			replayed += len(want)
		}
	}
	st.mu.Lock()
	st.replayed += replayed
	st.replayNs += clk.now() - start
	st.mu.Unlock()
	return nil
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func distinctSeqs(r *srcRun) int {
	seen := map[int32]bool{}
	for _, ar := range r.recv {
		for _, rc := range ar.recs {
			seen[rc.seq] = true
		}
	}
	return len(seen)
}

// roundLat holds one round's latency samples (ns).
type roundLat struct{ deliver, transit, hold, late samples }

// addRound keeps the round's quantiles. Called with st.mu held.
func (st *roundStats) addRound(l *roundLat) {
	keep := func(p50, p99 *samples, s samples) {
		if len(s) == 0 {
			return
		}
		p50.add(s.median())
		if p99 != nil {
			v, _, _ := s.p99()
			p99.add(v)
		}
	}
	keep(&st.deliverP50, &st.deliverP99, l.deliver)
	keep(&st.transitP50, &st.transitP99, l.transit)
	keep(&st.lateP50, &st.lateP99, l.late)
	keep(&st.holdP50, nil, l.hold)
}

// check compares every app's live deliveries with the reference and adds
// their latencies to lat. Transit is recorded only for a paced source,
// whose inputs are sent after they fall due. Called with st.mu held.
func (st *roundStats) check(r *srcRun, lat *roundLat) {
	inputEv := r.in.inputEvent()
	for _, app := range r.in.apps {
		want, got := r.ref.live[app], r.recv[app].recs
		st.attempted += len(want)
		st.failed += mismatches("live "+r.in.name+"/"+app, r.ref, want, got)
		for j := 0; j < min(len(want), len(got)); j++ {
			tx := &r.ref.txs[want[j]]
			lat.deliver.add(float64(got[j].at - r.due[tx.releaser]))
			lat.hold.add(float64(r.due[tx.releaser] - r.due[inputEv[tx.seq]]))
			if r.paced {
				lat.transit.add(float64(got[j].at - r.sent[tx.releaser]))
			}
		}
	}
}
