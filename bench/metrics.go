package main

// The metric and workload declarations BENCHMARK.json repeats; a test
// keeps the two in step.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a later PR may worsen it by; end-to-end only
}

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"char-full", "the CLI's unfiltered characterize-file path: core does nearly all the work, scans prune nothing"},
	{"char-filtered", "drill-down filters over the same files: footer pruning, projection and compressed-domain kernels decide the time, core sees few rows"},
	{"serve-mixed", "vanid in repository mode: cached reports, re-queries of hot traces, never-seen uploads, fleet queries and compaction side by side"},
	{"produce", "the write side: simulate, trace, merge and encode with wrun, plus a what-if sweep; the encoder char-* only ever decodes"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"alloc_bytes_per_event", "B/event", "lower", 0.03},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"encoded_bytes_per_event", "B/event", "lower", 0.02},
}

// corpusNames are the six generators; per-generator metrics carry one as
// their suffix.
var corpusNames = []string{"cm1", "hacc", "cosmoflow", "jag", "montage-mpi", "montage-pegasus"}

// perLayer are the metrics of single layers, taken in the traced run. A
// workload reports 0 for a layer it does not enter.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// op classes: the latency each kind of caller sees (untraced pass of the traced run)
		{"class.hit_p50_ms", "ms", "lower", 0},
		{"class.requery_p50_ms", "ms", "lower", 0},
		{"class.miss_p50_ms", "ms", "lower", 0},
		{"class.fleet_p50_ms", "ms", "lower", 0},
		{"class.wrun_p50_ms", "ms", "lower", 0},
		{"class.sweep_p50_ms", "ms", "lower", 0},

		{"trace.open_ms", "ms", "lower", 0},
		{"trace.decode_mb_s.par1", "MB/s", "higher", 0},
		{"trace.decode_mb_s.parN", "MB/s", "higher", 0},
		{"trace.encode_mb_s", "MB/s", "higher", 0},
		{"trace.encode_flate_mb_s", "MB/s", "higher", 0},
		{"trace.merge_ms", "ms", "lower", 0},

		{"colstore.plan_ms", "ms", "lower", 0},
		{"colstore.blocks_pruned_ratio", "ratio", "higher", 0},
		{"colstore.rows_kept_ratio", "ratio", "lower", 0},
		{"colstore.decoded_bytes_ratio", "ratio", "lower", 0},
		{"colstore.kernels_served_ratio", "ratio", "higher", 0},
		{"colstore.group_served_ratio", "ratio", "higher", 0},
		{"colstore.tl_served_ratio", "ratio", "higher", 0},
		{"colstore.runisect_served_ratio", "ratio", "higher", 0},
		{"colstore.builder_ms", "ms", "lower", 0},

		{"core.analyze_ms", "ms", "lower", 0},
		{"core.analyze_share", "ratio", "lower", 0},
		{"core.par_speedup", "ratio", "higher", 0},
		{"core.alloc_bytes_per_event", "B/event", "lower", 0},
		{"core.allocs_per_op", "count", "lower", 0},
		{"core.frac_of_membw", "ratio", "higher", 0},

		{"mem.sum_mb_s", "MB/s", "higher", 0},

		{"yamlenc.marshal_ms", "ms", "lower", 0},
		{"yamlenc.decode_ms", "ms", "lower", 0},

		{"server.req_per_s", "1/s", "higher", 0},
		{"server.healthz_ms", "ms", "lower", 0},
		{"server.report_cache_hit_ratio", "ratio", "higher", 0},
		{"server.block_cache_hit_ratio", "ratio", "higher", 0},
		{"server.requery_decoded_bytes", "B", "lower", 0},
		{"server.rejected", "count", "lower", 0},
		{"server.jobs_failed", "count", "lower", 0},

		{"repo.add_ms", "ms", "lower", 0},
		{"repo.add_dup_ms", "ms", "lower", 0},
		{"repo.compact_ms", "ms", "lower", 0},
		{"repo.compact_mb_s", "MB/s", "higher", 0},
		{"repo.fleet_ms_per_trace.loose", "ms", "lower", 0},
		{"repo.fleet_ms_per_trace.packed", "ms", "lower", 0},
		{"repo.open_ms", "ms", "lower", 0},
		{"repo.disk_bytes_per_user_byte", "ratio", "lower", 0},

		{"spec.parse_ms", "ms", "lower", 0},
		{"spec.interp_overhead", "ratio", "lower", 0},

		{"replay.tune_ms", "ms", "lower", 0},

		{"bench.trace_overhead_pct", "%", "lower", 0},
		{"bench.reference_slowdown", "ratio", "lower", 0},
		{"bench.gomaxprocs", "count", "higher", 0},
		{"bench.nproc", "count", "higher", 0},
	}
	for _, n := range corpusNames {
		defs = append(defs,
			metricDef{"trace.encoded_bytes_per_event." + n, "B/event", "lower", 0},
			metricDef{"core.ns_per_event." + n, "ns/event", "lower", 0},
			metricDef{"workloads.run_events_per_s." + n, "events/s", "higher", 0},
		)
	}
	return defs
}()

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}
