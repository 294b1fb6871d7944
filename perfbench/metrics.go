package main

// metricDef names one reported metric and its unit. README.md maps each
// per-layer metric to the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0); every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"jaccard", "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1), grouped by the
// repository module whose public functions the spans wrap.
var perLayer = []metricDef{
	{"graph.enumerate_ms", "ms/op"},
	{"graph.cliques", "count/op"},
	{"graph.round_cliques_max", "count"},
	{"graph.tracker_us", "us/apply"},
	{"features.compute_ms", "ms/op"},
	{"features.allocs", "allocs/op"},
	{"mlp.forward_ms", "ms/op"},
	{"mlp.train_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.filter_ms", "ms/op"},
	{"core.filter_share", "ratio"},
	{"core.round_ms", "ms/op"},
	{"core.phase1_ms", "ms/op"},
	{"core.phase2_ms", "ms/op"},
	{"core.rounds", "count/op"},
	{"core.accept_ratio", "ratio"},
	{"core.idle_component_share", "ratio"},
	{"core.piece_ms", "ms/op"},
	{"core.piece_max_ms", "ms/op"},
	{"shard.partition_ms", "ms/op"},
	{"shard.pieces", "count"},
	{"shard.largest_piece_share", "ratio"},
	{"hypergraph.merge_ms", "ms/op"},
	{"hypergraph.merge_allocs", "allocs/op"},
	{"hypergraph.write_ms", "ms/op"},
	{"incremental.apply_ms", "ms/apply"},
	{"incremental.dirty_components", "count/apply"},
	{"incremental.dirty_edge_share", "ratio"},
	{"durability.apply_ms", "ms/apply"},
	{"durability.wal_ms", "ms/apply"},
	{"durability.wal_bytes", "bytes/apply"},
	{"durability.snapshots", "count"},
	{"durability.snapshot_apply_ms", "ms"},
	{"admission.dedup_hit_ratio", "ratio"},
	{"admission.dedup_waiters", "count"},
	{"admission.dedup_bytes", "bytes"},
	{"admission.rejected", "count"},
	{"server.hit_ms", "ms"},
	{"server.miss_ms", "ms"},
	{"server.compute_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"marioh.alloc_mb_per_op", "MB/op"},
	{"marioh.gc_per_op", "count/op"},
	{"trace.overhead_pct", "%"},
}
