package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// source is where a per-layer metric comes from: "R" registry deltas,
	// "T" the traced run, "µ" a layer timed in isolation, "H" the harness.
	source string
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run.
//
// The bounds of the three timings are as wide as the contract allows: the
// durable workloads spread by 5–7 % between runs, of which the bound is to
// be three times, and by up to 20 % between the episodes of one run, under
// which -compare could resolve nothing (README.md, "How steady the numbers
// are"). Allocations repeat to 0.5 %. The tail percentiles repeat worse
// than 25 % — the 95th of kv-slowpath takes one of two values a quarter
// apart, run by run — and are per-layer metrics.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// msgKinds are the message kinds the codec timings cover.
var msgKinds = []string{"propose", "ack", "acksig", "commit", "request", "reply"}

// perLayer are the single-layer metrics, printed by a traced run. The
// prefix of a name is the package it measures.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(source, name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better, source: source})
	}
	for _, k := range msgKinds {
		add("µ", "msg.encode_ns."+k, "ns", "lower")
	}
	for _, k := range msgKinds {
		add("µ", "msg.decode_ns."+k, "ns", "lower")
	}
	add("µ", "msg.allocs_per_encode", "count", "lower")

	add("µ", "sigcrypto.sign_us", "us", "lower")
	add("µ", "sigcrypto.verify_us", "us", "lower")
	add("T", "sigcrypto.signs_per_op", "count", "lower")
	add("T", "sigcrypto.verifies_per_op", "count", "lower")
	add("T", "sigcrypto.busy_ms_per_op", "ms", "lower")
	add("T", "sigcrypto.busy_share", "share", "lower")

	add("µ", "core.slot_fast_us", "us", "lower")
	add("µ", "core.slot_slow_us", "us", "lower")
	add("µ", "core.delivers_per_slot", "count", "lower")

	add("R", "smr.msgs_out_per_op", "count", "lower")
	add("R", "smr.batch_size_mean", "count", "higher")
	add("R", "smr.fast_path_share", "share", "higher")
	add("R", "smr.view_changes", "count", "lower")
	add("R", "smr.regime_timeouts", "count", "lower")
	add("R", "smr.reproposed", "count", "lower")
	for _, st := range stageNames {
		add("R", "smr.stage_ms."+st, "ms", "lower")
	}
	add("T", "smr.handler_self_ms_per_op", "ms", "lower")
	add("T", "smr.handler_wait_ms_per_op", "ms", "lower")
	add("T", "smr.apply_us_per_op", "us", "lower")
	add("µ", "smr.memnet_hmac_ops_s", "1/s", "higher")

	add("R", "storage.wal_records_per_op", "count", "lower")
	add("R", "storage.wal_bytes_per_op", "bytes", "lower")
	add("R", "storage.fsyncs_per_op", "count", "lower")
	add("R", "storage.records_per_fsync", "count", "higher")
	add("R", "storage.fsync_p50_ms", "ms", "lower")
	add("R", "storage.fsync_p99_ms", "ms", "lower")
	add("µ", "storage.append_group_us", "us", "lower")
	add("µ", "storage.append_group_8w_rec_s", "1/s", "higher")

	add("R", "transport.frames_out_per_op", "count", "lower")
	add("R", "transport.bytes_out_per_op", "bytes", "lower")
	add("R", "transport.mux_frames_per_op", "count", "lower")
	add("T", "transport.send_calls_per_op", "count", "lower")
	add("T", "transport.send_busy_us_per_op", "us", "lower")
	add("µ", "transport.tcp_rtt_us", "us", "lower")
	add("µ", "transport.tcp_frames_s", "1/s", "higher")
	add("µ", "transport.clientframe_rtt_us", "us", "lower")

	add("R", "group.slots_min_over_max", "share", "higher")

	add("T", "client.sends_per_op", "count", "lower")
	add("T", "client.retransmits_per_op", "count", "lower")
	add("T", "client.replies_per_op", "count", "lower")
	add("T", "client.reply_skew_ms", "ms", "lower")

	add("H", "latency_p95_ms", "ms", "lower")
	add("H", "latency_p99_ms", "ms", "lower")
	add("H", "failover_ms", "ms", "lower")
	add("H", "failed_share", "share", "lower")
	add("H", "loadgen.late_p99_ms", "ms", "lower")
	add("H", "runtime.gc_pause_ms", "ms", "lower")
	add("H", "runtime.heap_mb_peak", "MiB", "lower")
	add("H", "trace.overhead_pct", "%", "lower")
	add("H", "layers.unattributed_share", "share", "lower")
	return defs
}
