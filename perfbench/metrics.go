package main

// metrics holds computed values by metric name.
type metrics map[string]float64

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, reported by every
// untraced run on every workload. An op is one checkpoint epoch on
// ckpt-write, one restore on failover-read, one chaos seed on chaos-mix
// and one fleet run on fleet-10k.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median of setupRepeats set-ups
	{"ops_per_s", "op/s"},    // ops per second of timed op wall time
	{"op_wall_ms_p50", "ms"}, // median op wall latency
	{"op_wall_ms_p90", "ms"}, // p90 op wall latency (>= 100 ops per run)
	{"go_mem_mb_p50", "MiB"}, // median Go memory held between ops
}

// perLayer are the traced run's metrics. Wall times, byte counts and
// event counts are per op of the traced pass; cpu shares are fractions of
// the traced pass's CPU profile; the simulated metrics come from the
// untraced first pass and repeat exactly for a seed. A layer a workload
// bypasses reports 0.
var perLayer = []metricDef{
	// Simulated end-to-end figures of the workload that produces them.
	{"ckpt_sim_ms_p50", "ms"}, {"ckpt_sim_ms_p90", "ms"},
	{"restore_sim_ms_p50", "ms"}, {"restore_sim_ms_p90", "ms"},
	{"ttfi_sim_ms_p50", "ms"}, {"stored_bytes_ratio", "ratio"},
	{"work_lost_sim_ms", "ms"}, {"makespan_sim_ms", "ms"},
	{"failed_frac", "ratio"},

	{"workload.run_wall_ms", "ms"}, {"workload.bytes_written", "B"},
	{"mem.faults", "count"},
	{"tracker.collect_wall_ms", "ms"}, {"tracker.dirty_bytes", "B"}, {"tracker.protected_pages", "count"},
	{"tracker.amplification", "ratio"},
	{"capture.wall_ms", "ms"}, {"capture.mb_per_s", "MiB/s"}, {"capture.alloc_mb", "MiB"}, {"capture.sim_ms", "ms"},
	{"encode.wall_ms", "ms"}, {"encode.mb_per_s", "MiB/s"}, {"encode.alloc_mb", "MiB"},
	{"storage.write_wall_ms", "ms"}, {"storage.write_sim_ms", "ms"}, {"storage.stored_bytes", "B"},
	{"storage.degraded_reads", "count"},
	{"chain.read_wall_ms", "ms"}, {"chain.read_sim_ms", "ms"}, {"chain.objects", "count"}, {"chain.bytes", "B"},
	{"replay.wall_ms", "ms"}, {"replay.mb_per_s", "MiB/s"}, {"replay.bytes", "B"}, {"replay.sim_ms", "ms"},
	{"replay.alloc_mb", "MiB"},
	{"lazy.hot_wall_ms", "ms"}, {"lazy.drain_wall_ms", "ms"}, {"lazy.hot_bytes", "B"},
	{"lazy.faults_served", "count"}, {"lazy.prefetched", "count"}, {"lazy.demand_ratio", "ratio"},
	{"lazy.ttfi_vs_eager", "ratio"},
	{"cluster.checkpoints", "count"}, {"cluster.restarts", "count"}, {"cluster.from_scratch_ratio", "ratio"},
	{"cluster.ckpt_failed_ratio", "ratio"}, {"cluster.bytes_shipped", "B"}, {"pipe.stalls", "count"},
	{"compact.folds", "count"}, {"policy.recomputes", "count"},
	{"detector.detections", "count"}, {"detector.false_positives", "count"},
	{"fleet.events", "count"}, {"fleet.ckpt_acks", "count"}, {"fleet.failovers", "count"},
	{"fleet.timers", "count"}, {"fleet.wall_ms_per_sim_ms", "ratio"},
	{"gc.cycles", "count"}, {"alloc_mb_per_op", "MiB"}, {"peak_rss_mb", "MiB"},

	// CPU-profile attribution rows (see profile.go).
	{"workload.cpu_share", "ratio"}, {"mem.cpu_share", "ratio"}, {"tracker.cpu_share", "ratio"},
	{"capture.cpu_share", "ratio"}, {"encode.cpu_share", "ratio"}, {"replay.cpu_share", "ratio"},
	{"lazy.cpu_share", "ratio"}, {"checkpoint.cpu_share", "ratio"}, {"storage.cpu_share", "ratio"},
	{"erasure.cpu_share", "ratio"}, {"cluster.cpu_share", "ratio"}, {"fleet.cpu_share", "ratio"},
	{"chaos.cpu_share", "ratio"}, {"detector.cpu_share", "ratio"}, {"trace.cpu_share", "ratio"},
	{"crc64.cpu_share", "ratio"}, {"copy.cpu_share", "ratio"}, {"gc.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"}, {"bench.cpu_share", "ratio"},

	// Tracing overhead: the same op list untraced, then traced.
	{"bench.ops_per_s_untraced", "op/s"}, {"bench.ops_per_s_traced", "op/s"},
	{"bench.trace_overhead", "ratio"}, {"bench.profile_samples", "count"},
}

// layerWall returns the traced per-op wall milliseconds of the spans
// named name, and their per-op allocation in MiB.
func layerWall(tr *tracer, name string, n int) (wallMs, allocMB float64) {
	ls := tr.layer(name)
	return ratio(float64(ls.wall.Nanoseconds())/1e6, float64(n)), ratio(float64(ls.allocB)/mib, float64(n))
}

// throughput returns MiB/s for bytes moved in the spans named name.
func throughput(tr *tracer, name string, bytes float64) float64 {
	return ratio(bytes/mib, tr.layer(name).wall.Seconds())
}
