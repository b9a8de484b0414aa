// Command perfbench is the repository benchmark: it runs one workload for
// a fixed time, checks every delivery against a single-thread reference
// replay through the engine, and prints its metrics as one JSON line.
//
//	go run . --workload groups --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// with spans around the calls into each layer, replays its inputs through
// the layers one at a time, prints the layer ledger, writes the spans to
// .bench_build/perfbench-spans-<workload>-<seed>.csv and prints the
// per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// Sizes of the embedded job: tuples per source per round.
const embeddedTuples = 40000

// Rates of the paced workloads, inputs per second.
const baseRate = 10000

// latencyLimit is the p99 delivery limit a ladder rate must meet.
const latencyLimit = 20 * time.Millisecond

// setupProbes is how many set-ups a run times, without traffic, before
// its rounds; setup_s is their median. The rounds' own set-ups are not
// timed: they would depend on the state the previous round left.
const setupProbes = 100

// ladder is the fixed list of rates tried for sustained_tuples_per_s.
var ladder = []float64{5000, 10000, 20000, 40000, 80000, 160000}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured time")
	traceFlag := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	if _, ok := workloadWhy[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// scratchDir is where a run may write: inside the checkout it runs from.
func scratchDir() string {
	return filepath.Join(".bench_build", fmt.Sprintf("perfbench-tmp-%d", os.Getpid()))
}

func run(workload string, seed int64, measure time.Duration, traced bool) (*resultLine, error) {
	dir := scratchDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var r *runOut
	var err error
	switch workload {
	case "groups", "durable-resume", "durable-churn":
		r, err = runEmbedded(workload, seed, measure, traced, dir)
	case "paced-tcp", "edge-relay":
		r, err = runPaced(workload == "edge-relay", baseRate, seed, measure, traced)
	}
	if err != nil {
		return nil, err
	}
	res := &resultLine{Metrics: map[string]metricOut{}}
	res.Attempted, res.Failed = r.checked()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !traced {
		for name, v := range endToEndValues(r.main) {
			res.Metrics[name] = metricOut{v, unitOf(endToEnd, name)}
		}
		return res, nil
	}
	vals := layerValues(workload, r)
	for name, v := range vals {
		res.Metrics[name] = metricOut{v, unitOf(perLayer, name)}
	}
	printLedger(os.Stdout, workload, r, vals)
	spans := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.csv", workload, seed))
	if err := writeSpans(spans, r.traced.tracers); err != nil {
		return nil, err
	}
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric missing from the catalogue: " + name)
}

// runOut is everything a run measured: the untraced rounds, the traced
// rounds (traced runs only) and the isolated layer runs.
type runOut struct {
	main, traced *roundStats
	layers       layerStats
	sustained    float64
	at4x         *roundStats // paced: rounds at 4x the base rate
	extra        *roundStats // paced: ladder and direct rounds, kept for their checks
	directP50    float64     // ns, edge-relay: transit p50 without the edge
	closedLoop   bool
}

// checked returns the deliveries checked against the reference in every
// round of the run, and how many of them were wrong.
func (r *runOut) checked() (attempted, failed int) {
	for _, st := range []*roundStats{r.main, r.traced, r.at4x, r.extra} {
		if st != nil {
			attempted += st.attempted
			failed += st.failed
		}
	}
	return attempted, failed
}

// rounds runs round(i, traced) until measure has passed (at least
// minRounds); in a traced run every other round is traced.
func rounds(measure time.Duration, minRounds int, traced bool, round func(i int, traced bool) error) error {
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < measure; i++ {
		if err := round(i, traced && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

func runEmbedded(workload string, seed int64, measure time.Duration, traced bool, dir string) (*runOut, error) {
	rng := rand.New(rand.NewSource(seed))
	durable := workload != "groups"
	job := &embeddedJob{durable: durable, dataDir: dir}
	for s := 0; s < 2; s++ {
		in, err := namosSource(fmt.Sprintf("src%d", s), embeddedTuples, seed*2+int64(s)+1)
		if err != nil {
			return nil, err
		}
		switch workload {
		case "groups":
			steadyScript(in)
		case "durable-resume":
			resumeScript(in)
		case "durable-churn":
			churnScript(in, closedBatch, rng)
		}
		ref, err := buildReference(in)
		if err != nil {
			return nil, err
		}
		job.inputs = append(job.inputs, in)
		job.refs = append(job.refs, ref)
	}
	out := &runOut{main: &roundStats{}, closedLoop: true}
	if traced {
		out.traced = &roundStats{}
	}
	clk := newClock()
	for i := 0; i < setupProbes; i++ {
		if err := job.setupProbe(clk, out.main, i); err != nil {
			return nil, err
		}
	}
	err := rounds(measure, 3, traced, func(i int, tr bool) error {
		st := out.main
		if tr {
			st = out.traced
		}
		return job.round(clk, st, tr, i)
	})
	if err != nil || !traced {
		return out, err
	}
	for _, ref := range job.refs {
		out.traced.stepNs = append(out.traced.stepNs, ref.stepNs...)
	}
	out.traced.layerInputs, out.traced.layerRefs = job.inputs, job.refs
	return out, runLayers(out, closedBatch, false, durable, dir)
}

func runLayers(out *runOut, batch int, wait, durable bool, dir string) error {
	st := out.traced
	if err := wireLayer(st.layerInputs, st.layerRefs, &out.layers); err != nil {
		return err
	}
	if err := shardLayer(st.layerInputs, st.layerRefs, batch, wait, &out.layers); err != nil {
		return err
	}
	// Engine time alone: the sum of the timed Step calls of the
	// single-thread replay.
	var steps int
	var stepTotal float64
	for _, ref := range st.layerRefs {
		steps += ref.inputs
		for _, ns := range ref.stepNs {
			stepTotal += ns
		}
	}
	if stepTotal > 0 {
		out.layers.singleThreadTuplesPerS = float64(steps) / (stepTotal / 1e9)
	}
	if durable {
		return seglogLayer(filepath.Join(dir, "seglog-layer"), st.layerInputs, st.layerRefs, &out.layers)
	}
	return nil
}

func runPaced(relay bool, rate float64, seed int64, measure time.Duration, traced bool) (*runOut, error) {
	job := &pacedJob{seed: seed}
	out := &runOut{main: &roundStats{}}
	if traced {
		out.traced = &roundStats{}
	}
	clk := newClock()
	for i := 0; i < setupProbes; i++ {
		if err := job.setupProbe(clk, out.main, relay); err != nil {
			return nil, err
		}
	}
	err := rounds(0, max(2, int(measure/pacedPhase)), traced, func(i int, tr bool) error {
		st := out.main
		if tr {
			st = out.traced
		}
		_, err := job.round(clk, st, tr, relay, rate, pacedPhase, i)
		return err
	})
	if err != nil || !traced {
		return out, err
	}
	out.at4x = &roundStats{}
	for i := 0; i < 3; i++ {
		if _, err := job.round(clk, out.at4x, false, relay, 4*rate, pacedPhase, 3000+i); err != nil {
			return nil, err
		}
	}
	// The ladder: short rounds at rising rates until one misses the
	// latency limit or its backlog grows.
	out.extra = &roundStats{}
	for i, r := range ladder {
		pr, err := job.round(clk, out.extra, false, relay, r, pacedPhase/2, 1000+i)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# ladder %.0f/s: achieved %.0f/s, deliver p99 %.3fms, backlog growing %v\n", r, pr.achieved, pr.deliverP99/1e6, pr.growing)
		if pr.growing || pr.deliverP99 > float64(latencyLimit) {
			break
		}
		out.sustained = pr.achieved
	}
	if relay {
		direct := &roundStats{}
		for i := 0; i < 2; i++ {
			if _, err := job.round(clk, direct, false, false, rate, pacedPhase, 2000+i); err != nil {
				return nil, err
			}
		}
		out.directP50 = direct.transitP50.median()
		out.extra.attempted += direct.attempted
		out.extra.failed += direct.failed
	}
	return out, runLayers(out, out.traced.layerBatch, true, false, "")
}

// endToEndValues computes the end-to-end metrics of an untraced run.
func endToEndValues(st *roundStats) map[string]float64 {
	return map[string]float64{
		"setup_s":        st.setupNs.median() / 1e9,
		"tuples_per_s":   st.tps.median(),
		"oi_ratio":       float64(st.distinct) / float64(max(1, st.inputs)),
		"deliver_p50_ms": st.deliverP50.median() / 1e6,
		"heap_peak_mb":   st.heapMB.median(),
	}
}

// layerValues computes every per-layer metric of a traced run; a layer
// the workload does not run reads 0.
func layerValues(workload string, r *runOut) map[string]float64 {
	st, ls := r.traced, &r.layers
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	paced := !r.closedLoop
	// End-to-end figures that did not repeat across seeds within any
	// bound: reported from the traced run's untraced rounds, not gated.
	v["deliver_p99_ms"] = r.main.deliverP99.median() / 1e6
	member := append(append(samples(nil), r.main.subscribeNs...), r.main.closeNs...)
	v["member_change_p50_ms"] = member.median() / 1e6
	if r.at4x != nil {
		v["deliver_p50_ms_4x"] = r.at4x.deliverP50.median() / 1e6
		v["deliver_p99_ms_4x"] = r.at4x.deliverP99.median() / 1e6
	}
	relay := workload == "edge-relay"
	if paced {
		v["gen.late_p50_ms"] = st.lateP50.median() / 1e6
		v["gen.late_p99_ms"] = st.lateP99.median() / 1e6
		v["gen.backlog_max"] = float64(st.backlogMax)
		v["sustained_tuples_per_s"] = r.sustained
	}
	step99, _, _ := st.stepNs.p99()
	v["core.step_ns_p50"] = st.stepNs.median()
	v["core.step_ns_p99"] = step99
	v["core.single_thread_tuples_per_s"] = ls.singleThreadTuplesPerS
	var txs, deliveries, steps int
	var control samples
	for _, ref := range st.layerRefs {
		txs += len(ref.txs)
		steps += ref.inputs
		for _, tx := range ref.txs {
			deliveries += len(tx.labels)
		}
		control = append(control, ref.controlNs...)
	}
	v["core.tx_per_step"] = float64(txs) / float64(max(1, steps))
	v["core.deliveries_per_tx"] = float64(deliveries) / float64(max(1, txs))
	v["core.control_us_p50"] = control.median() / 1e3
	v["core.hold_ms_p50"] = st.holdP50.median() / 1e6
	v["wire.encode_ns"] = ls.encodeNs
	v["wire.decode_ns"] = ls.decodeNs
	v["wire.bytes_per_tx"] = ls.bytesPerTx
	sub99, _, _ := ls.submitNs.p99()
	hand99, _, _ := ls.handoffNs.p99()
	v["shard.submit_us_p50"] = ls.submitNs.median() / 1e3
	v["shard.submit_us_p99"] = sub99 / 1e3
	v["shard.handoff_us_p50"] = ls.handoffNs.median() / 1e3
	v["shard.handoff_us_p99"] = hand99 / 1e3
	v["shard.outs_per_sink_call"] = float64(ls.outs) / float64(max(1, ls.sinkCalls))
	v["shard.producer_parks"] = float64(ls.parks)
	v["shard.max_queue_depth"] = float64(ls.maxDepth)
	recvWait := spanDurations(st.tracers, "broker.recv")
	if !paced {
		v["broker.publish_us_p50"] = st.publishNs.median() / 1e3
		v["broker.publish_blocked_frac"] = float64(st.producerParks) / float64(max(1, len(st.publishNs)))
		v["broker.recv_wait_us_p50"] = recvWait.median() / 1e3
		v["broker.drops"] = float64(st.drops)
		v["broker.subscribe_ms_p50"] = st.subscribeNs.median() / 1e6
		v["broker.close_ms_p50"] = st.closeNs.median() / 1e6
	}
	if st.replayed > 0 {
		v["broker.resume_first_ms"] = st.resumeFirstNs.median() / 1e6
		v["broker.replay_deliveries_per_s"] = float64(st.replayed) / (float64(st.replayNs) / 1e9)
	}
	if ls.seglogRan {
		app99, _, _ := ls.appendNs.p99()
		v["seglog.append_ns_p50"] = ls.appendNs.median()
		v["seglog.append_ns_p99"] = app99
		v["seglog.read_ns_per_record"] = ls.readNsPerRecord
		v["seglog.bytes_per_record"] = ls.bytesPerRecord
	}
	if paced {
		v["server.publish_us_p50"] = st.publishNs.median() / 1e3
		v["server.transit_ms_p50"] = st.transitP50.median() / 1e6
		v["server.transit_ms_p99"] = st.transitP99.median() / 1e6
		v["server.bytes_out"] = float64(st.bytesOut)
		v["server.evictions"] = float64(st.evictions)
		v["server.wire_bytes_per_tuple"] = float64(st.bytesOut) / float64(max(1, st.inputs))
		v["ledger.unexplained_ms_p50"] = (st.transitP50.median() - isolatedComputeNs(v)) / 1e6
		if relay {
			v["relay.transit_ms_p50"] = v["server.transit_ms_p50"]
			v["relay.transit_ms_p99"] = v["server.transit_ms_p99"]
			v["relay.hop_ms_p50"] = (st.transitP50.median() - r.directP50) / 1e6
			v["relay.legs"] = float64(st.legs)
		}
	}
	v["trace.overhead_frac"] = overhead(r)
	attempted, failed := r.checked()
	v["failed_ops_frac"] = float64(failed) / float64(max(1, attempted))
	return v
}

// isolatedComputeNs is the compute one delivery needs when each layer
// runs alone: an engine step, a wire encode and decode, and the shard
// hand-off.
func isolatedComputeNs(v map[string]float64) float64 {
	return v["core.step_ns_p50"] + v["wire.encode_ns"] + v["wire.decode_ns"] + v["shard.handoff_us_p50"]*1e3
}

// overhead compares traced with untraced rounds: throughput for closed
// loops; for paced workloads, whose throughput is the offered rate,
// the transit p50.
func overhead(r *runOut) float64 {
	if r.closedLoop {
		u, t := r.main.tps.median(), r.traced.tps.median()
		if u == 0 {
			return 0
		}
		return 1 - t/u
	}
	u, t := r.main.transitP50.median(), r.traced.transitP50.median()
	if u == 0 {
		return 0
	}
	return t/u - 1
}

func spanDurations(tracers []*tracer, name string) samples {
	var s samples
	for _, t := range tracers {
		for _, sp := range t.spans {
			if sp.name == name {
				s.add(float64(sp.end - sp.start))
			}
		}
	}
	return s
}

// printLedger prints the layer table of a traced run: spans recorded
// around calls into the program, then the isolated layer runs, then what
// the isolated compute leaves unexplained.
func printLedger(w *os.File, workload string, r *runOut, v map[string]float64) {
	fmt.Fprintf(w, "# ledger: %s (%s)\n", workload, workloadWhy[workload])
	fmt.Fprintf(w, "# %-22s %9s %12s %12s %11s  %s\n", "span", "count", "total_ms", "self_ms", "p50_us", "parents")
	for _, row := range summarise(r.traced.tracers) {
		var parents []string
		for p := range row.parentNames {
			parents = append(parents, p)
		}
		sort.Strings(parents)
		fmt.Fprintf(w, "# %-22s %9d %12.3f %12.3f %11.3f  %s\n", row.name, row.count,
			float64(row.totalNs)/1e6, float64(row.selfNs)/1e6, row.p50Ns/1e3, strings.Join(parents, ","))
	}
	ls := &r.layers
	fmt.Fprintf(w, "# %-22s %9s %12s\n", "isolated layer", "count", "p50")
	fmt.Fprintf(w, "# %-22s %9d %10.0fns\n", "core.step", len(r.traced.stepNs), v["core.step_ns_p50"])
	fmt.Fprintf(w, "# %-22s %9d %10.0fns\n", "wire.encode+decode", ls.wireTxs, ls.encodeNs+ls.decodeNs)
	fmt.Fprintf(w, "# %-22s %9d %10.1fus\n", "shard.handoff", len(ls.handoffNs), v["shard.handoff_us_p50"])
	if ls.seglogRan {
		fmt.Fprintf(w, "# %-22s %9d %10.0fns\n", "seglog.append", len(ls.appendNs), v["seglog.append_ns_p50"])
	}
	if !r.closedLoop {
		fmt.Fprintf(w, "# transit p50 %.3fms = isolated compute %.3fms + unexplained %.3fms\n",
			v["server.transit_ms_p50"], isolatedComputeNs(v)/1e6, v["ledger.unexplained_ms_p50"])
	}
	if r.traced.departureOwed > 0 {
		fmt.Fprintf(w, "# resume replayed %d deliveries released by the app's own departure, which it never received live\n", r.traced.departureOwed)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "# %-34s %14.4f %-6s -> %s\n", d.name, v[d.name], d.unit, d.target)
	}
}
