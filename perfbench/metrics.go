package main

// The metric catalogue: BENCHMARK.json lists the same names and units
// (a test keeps the two in step). Each per-layer metric names the
// end-to-end metric, and the workload, it should move; the ledger prints
// the pairing next to each value.

type metricDef struct {
	name, unit, better string
	target             string // per-layer: the end-to-end metric it should move @ workload
}

var endToEnd = []metricDef{
	// Median of the run's set-ups without traffic: broker or servers,
	// sources and first subscriptions.
	{name: "setup_s", unit: "s", better: "lower"},
	// Inputs per second of a round, first publish to last delivery
	// (paced workloads: the achieved input rate).
	{name: "tuples_per_s", unit: "1/s", better: "higher"},
	// Distinct tuples delivered per input: the paper's bandwidth metric.
	{name: "oi_ratio", unit: "ratio", better: "lower"},
	// Due time of the input that released a transmission to its receipt.
	{name: "deliver_p50_ms", unit: "ms", better: "lower"},
	// Live heap at the end of a round's work, where the retained state
	// peaks, minus the live heap before its set-up.
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
}

var perLayer = []metricDef{
	{"deliver_p99_ms", "ms", "lower", "end to end; per-layer because it did not repeat within a bound across seeds"},
	{"deliver_p50_ms_4x", "ms", "lower", "end to end at 4x the base rate @ paced-tcp, edge-relay; per-layer because it did not repeat within a bound"},
	{"deliver_p99_ms_4x", "ms", "lower", "end to end at 4x the base rate @ paced-tcp, edge-relay; per-layer because it did not repeat within a bound"},
	{"member_change_p50_ms", "ms", "lower", "end to end (Subscribe or Close return); per-layer because it did not repeat within a bound"},
	{"gen.late_p50_ms", "ms", "lower", "deliver_* @ paced (harness cost: a program change should not move it)"},
	{"gen.late_p99_ms", "ms", "lower", "deliver_* @ paced (harness cost)"},
	{"gen.backlog_max", "count", "lower", "deliver_*, sustained_tuples_per_s @ paced"},
	{"sustained_tuples_per_s", "1/s", "higher", "highest ladder rate meeting the p99 limit without backlog growth @ paced"},
	{"core.step_ns_p50", "ns", "lower", "tuples_per_s @ groups; no move @ paced-tcp"},
	{"core.step_ns_p99", "ns", "lower", "tuples_per_s @ groups"},
	{"core.single_thread_tuples_per_s", "1/s", "higher", "tuples_per_s @ groups"},
	{"core.tx_per_step", "ratio", "lower", "tuples_per_s, oi_ratio @ groups"},
	{"core.deliveries_per_tx", "ratio", "higher", "tuples_per_s @ groups"},
	{"core.control_us_p50", "us", "lower", "member_change_p50_ms @ durable-resume, durable-churn"},
	{"core.hold_ms_p50", "ms", "lower", "excluded from deliver_* (window hold)"},
	{"wire.encode_ns", "ns", "lower", "deliver_p50_ms @ paced-tcp (predict no visible move)"},
	{"wire.decode_ns", "ns", "lower", "deliver_p50_ms @ paced-tcp (predict no visible move)"},
	{"wire.bytes_per_tx", "bytes", "lower", "server.wire_bytes_per_tuple @ paced-tcp"},
	{"shard.submit_us_p50", "us", "lower", "tuples_per_s @ groups"},
	{"shard.submit_us_p99", "us", "lower", "tuples_per_s @ groups"},
	{"shard.handoff_us_p50", "us", "lower", "tuples_per_s @ groups, deliver_p50_ms @ paced-tcp"},
	{"shard.handoff_us_p99", "us", "lower", "deliver_p99_ms @ paced-tcp"},
	{"shard.outs_per_sink_call", "ratio", "higher", "tuples_per_s @ groups"},
	{"shard.producer_parks", "count", "lower", "tuples_per_s @ groups"},
	{"shard.max_queue_depth", "count", "lower", "tuples_per_s @ groups"},
	{"broker.publish_us_p50", "us", "lower", "tuples_per_s @ groups, durable-resume"},
	{"broker.publish_blocked_frac", "ratio", "lower", "shard producer parks per PublishBatch call; tuples_per_s @ groups, durable-resume"},
	{"broker.recv_wait_us_p50", "us", "lower", "tuples_per_s @ groups, durable-resume"},
	{"broker.drops", "count", "lower", "failed_ops_frac @ groups, durable-resume"},
	{"broker.subscribe_ms_p50", "ms", "lower", "member_change_p50_ms @ durable-resume, durable-churn"},
	{"broker.close_ms_p50", "ms", "lower", "member_change_p50_ms @ durable-resume, durable-churn"},
	{"broker.resume_first_ms", "ms", "lower", "broker.replay_deliveries_per_s @ durable-resume"},
	{"broker.replay_deliveries_per_s", "1/s", "higher", "catch-up time after a resume @ durable-resume"},
	{"seglog.append_ns_p50", "ns", "lower", "tuples_per_s @ durable-resume"},
	{"seglog.append_ns_p99", "ns", "lower", "tuples_per_s @ durable-resume"},
	{"seglog.read_ns_per_record", "ns", "lower", "broker.replay_deliveries_per_s @ durable-resume"},
	{"seglog.bytes_per_record", "bytes", "lower", "broker.replay_deliveries_per_s @ durable-resume"},
	{"server.publish_us_p50", "us", "lower", "deliver_* @ paced-tcp"},
	{"server.transit_ms_p50", "ms", "lower", "deliver_p50_ms @ paced-tcp"},
	{"server.transit_ms_p99", "ms", "lower", "deliver_p99_ms @ paced-tcp"},
	{"server.bytes_out", "bytes", "lower", "server.wire_bytes_per_tuple @ paced-tcp"},
	{"server.evictions", "count", "lower", "failed_ops_frac @ paced-tcp"},
	{"server.wire_bytes_per_tuple", "bytes", "lower", "egress cost per input @ paced-tcp, edge-relay"},
	{"relay.transit_ms_p50", "ms", "lower", "deliver_p50_ms @ edge-relay; no move @ paced-tcp"},
	{"relay.transit_ms_p99", "ms", "lower", "deliver_p99_ms @ edge-relay"},
	{"relay.hop_ms_p50", "ms", "lower", "deliver_p50_ms @ edge-relay"},
	{"relay.legs", "count", "lower", "wire_bytes_per_tuple @ edge-relay"},
	{"ledger.unexplained_ms_p50", "ms", "lower", "deliver_p50_ms @ paced-tcp, edge-relay"},
	{"trace.overhead_frac", "ratio", "lower", "none (tracing cost; end-to-end runs are untraced)"},
	{"failed_ops_frac", "ratio", "lower", "correctness: 0 on a correct run"},
}

// workloadWhy records why each workload is in the benchmark.
var workloadWhy = map[string]string{
	"groups":         "embedded broker, 2 NAMOS sources x 8 DC1 members, closed loop: the engine dominates; no sockets, no log",
	"durable-resume": "groups on a durable broker, then every app leaves and resumes from offset 0: seglog appends beside Step, then replay reads",
	// durable-churn is not in BENCHMARK.json: the embedded broker hands a
	// rejoining app's new session outputs owed to its previous session,
	// so the workload fails its reference check (see CHANGES.md).
	"durable-churn": "durable-resume with seeded leave/rejoin at batch boundaries: core AddFilter/RemoveFilter beside Step",
	"paced-tcp":     "open loop 10k/s over loopback TCP, pass-all spec: wire, server session, egress and client receive are the whole cost",
	"edge-relay":    "paced-tcp traffic through a core plus one edge: adds only the relay hop",
}
