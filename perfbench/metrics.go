package main

// metricDef names one reported metric and its unit. An exact metric is
// a count the program makes deterministically: two runs with the same
// seed report the same value, so a change may cite it as a count.
type metricDef struct {
	name, unit string
	exact      bool
}

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. Each workload fills the metrics of the layers it
// crosses; a layer the workload bypasses reads 0. Times are per
// operation of the workload (so layers add up to the mean latency) unless
// the name says otherwise; counts are totals over the traced phase.
var perLayer = []metricDef{
	// solve
	{"syntax.parse_us", "us", false},
	{"concretize.solve_ms", "ms", false},
	{"concretize.iterations", "count", true},
	{"concretize.backtracks", "count", true},
	{"concretize.solved_nodes", "count", true},
	{"concretize.reused_nodes", "count", true},
	{"concretize.reuse_ratio", "ratio", true},
	{"concretize.reuse_snapshot_ms", "ms", false},
	{"concretize.reuse_snapshot_calls", "count", true},
	{"concretize.reuse_snapshot_rebuilds", "count", true},
	// install
	{"store.new_ms", "ms", false},
	{"lifecycle.keyring_ms", "ms", false},
	{"store.find_ms", "ms", false},
	{"concretize.memo_ms", "ms", false},
	{"concretize.memo_hit_ratio", "ratio", true},
	{"build.ms", "ms", false},
	{"build.self_ms", "ms", false},
	{"build.virtual_s", "s", true},
	{"build.nodes_binary", "count", true},
	{"build.nodes_source", "count", true},
	{"build.nodes_reused", "count", true},
	{"build.fallbacks", "count", true},
	{"buildcache.hit_ratio", "ratio", true},
	{"buildcache.probes", "count", true},
	{"buildcache.probe_ms", "ms", false},
	{"buildcache.fetches", "count", true},
	{"buildcache.fetch_ms", "ms", false},
	{"buildcache.fetch_kb", "KiB", true},
	{"buildcache.verifies", "count", true},
	{"buildcache.verify_ms", "ms", false},
	{"fetch.source_fetches", "count", true},
	{"simfs.files", "count", true},
	{"modules.generate_ms", "ms", false},
	{"modules.files", "count", true},
	{"views.refresh_ms", "ms", false},
	{"store.save_ms", "ms", false},
	// fleet
	{"service.concretize_ms", "ms", false},
	{"service.install_ms", "ms", false},
	{"service.blob_get_ms", "ms", false},
	{"service.blob_put_ms", "ms", false},
	{"service.roundtrip_ms", "ms", false},
	{"service.decode_ms", "ms", false},
	{"syntax.decode_json_ms", "ms", false},
	{"service.memo_hit_ratio", "ratio", true},
	{"service.install_hit_ratio", "ratio", true},
	{"service.coalesced", "count", true},
	{"service.bytes_in_per_op", "B", true},
	{"service.bytes_out_per_op", "B", true},
	{"service.source_builds", "count", true},
	// every workload
	{"trace.coverage_pct", "%", false},
	{"trace.overhead_pct", "%", false},
	{"trace.spans", "count", true},
}
