package main

// metricDef declares one metric exactly as BENCHMARK.json lists it;
// bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them and none is ever zero, which is why the
// serving latencies, the simulated time-to-target and fail_share live in
// perLayer instead (README.md, "End-to-end metrics", says more).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"train_ex_per_s", "1/s", "higher", 0.25},
	{"train_alloc_bytes_per_ex", "B", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the traced pass's metrics, layer = module name. A workload
// whose path does not touch a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	// End-to-end readings that cannot be bounded under the contract: they
	// apply to one workload each, or are exactly 0 on a clean run.
	{"serve_p50_ms", "ms", "lower", 0},
	{"serve_p99_ms", "ms", "lower", 0},
	{"serve_max_rate_rps", "1/s", "higher", 0},
	{"vtime_to_target_ms", "ms", "lower", 0},
	{"epochs_to_target", "epochs", "lower", 0},
	{"fail_share", "ratio", "lower", 0},
	{"loss_final_over_initial", "ratio", "lower", 0},

	{"tensor.gemm_fwd_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_bwd_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_wgrad_gflops", "GFLOP/s", "higher", 0},
	{"tensor.gemm_b1_us", "us", "lower", 0},
	{"tensor.spmm_mnnz_per_s", "Mnnz/s", "higher", 0},
	{"tensor.spmmt_mnnz_per_s", "Mnnz/s", "higher", 0},
	{"tensor.apply_cols_gb_per_s", "GB/s", "higher", 0},
	{"tensor.apply_update_gb_per_s", "GB/s", "higher", 0},
	{"tensor.fastgemm_gflops", "GFLOP/s", "higher", 0},

	{"nn.grad_us_per_ex.cpu_batch", "us", "lower", 0},
	{"nn.grad_us_per_ex.gpu_batch", "us", "lower", 0},
	{"nn.grad_alloc_bytes", "B", "lower", 0},
	{"nn.grad_allocs", "count", "lower", 0},
	{"nn.loss_eval_ms", "ms", "lower", 0},
	{"nn.params_clone_us", "us", "lower", 0},
	{"nn.params_apply_us", "us", "lower", 0},
	{"nn.forward_us_per_ex.b1", "us", "lower", 0},
	{"nn.forward_us_per_ex.b64", "us", "lower", 0},
	{"nn.write_params_ms", "ms", "lower", 0},
	{"nn.read_params_ms", "ms", "lower", 0},
	{"nn.params_bytes", "B", "lower", 0},

	{"opt.step_us", "us", "lower", 0},

	{"data.shuffle_ms", "ms", "lower", 0},
	{"data.view_ns", "ns", "lower", 0},

	{"msgq.push_pop_ns", "ns", "lower", 0},
	{"msgq.handoff_us", "us", "lower", 0},

	{"transport.encode_work_us", "us", "lower", 0},
	{"transport.decode_work_us", "us", "lower", 0},
	{"transport.encode_done_us", "us", "lower", 0},
	{"transport.decode_done_us", "us", "lower", 0},
	{"transport.frame_rw_us", "us", "lower", 0},
	{"transport.bytes_per_dispatch", "B", "lower", 0},
	{"transport.bytes_per_ex", "B", "lower", 0},
	{"transport.dispatched", "count", "higher", 0},
	{"transport.completed", "count", "higher", 0},
	{"transport.duplicates", "count", "lower", 0},
	{"transport.reconnects", "count", "lower", 0},
	{"transport.heartbeat_misses", "count", "lower", 0},

	{"core.gradient_share", "ratio", "higher", 0},
	{"core.apply_share", "ratio", "lower", 0},
	{"core.queue_wait_share", "ratio", "lower", 0},
	{"core.schedule_share", "ratio", "lower", 0},
	{"core.eval_share", "ratio", "lower", 0},
	{"core.snapshot_share", "ratio", "lower", 0},
	{"core.idle_share_mean", "ratio", "lower", 0},
	{"core.idle_share_max", "ratio", "lower", 0},
	{"core.coord_us_per_dispatch", "us", "lower", 0},
	{"core.dispatches_per_s", "1/s", "higher", 0},
	{"core.updates_cpu_share", "ratio", "higher", 0},
	{"core.resizes", "count", "lower", 0},
	{"core.final_batch_cpu", "count", "higher", 0},
	{"core.final_batch_gpu", "count", "higher", 0},
	{"core.staleness_mean", "count", "lower", 0},
	{"core.staleness_max", "count", "lower", 0},
	{"core.ssp_blocked", "count", "lower", 0},
	{"core.redispatches", "count", "lower", 0},
	{"core.dropped_updates", "count", "lower", 0},
	{"core.overshoot_ms", "ms", "lower", 0},

	{"simclock.wall_us_per_dispatch", "us", "lower", 0},
	{"simclock.virtual_per_wall", "ratio", "higher", 0},

	{"serve.batch_size_mean", "count", "higher", 0},
	{"serve.batch_ceiling_final", "count", "higher", 0},
	{"serve.policy_changes", "count", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"serve.submit_us", "us", "lower", 0},
	{"serve.publish_us", "us", "lower", 0},
	{"serve.snapshots_published", "count", "higher", 0},
	{"serve.gen_late_p99_ms", "ms", "lower", 0},
	{"serve.idle_p50_ms", "ms", "lower", 0},
	{"serve.idle_p99_ms", "ms", "lower", 0},

	{"checkpoint.write_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},

	{"telemetry.trace_overhead_pct", "%", "lower", 0},
	{"telemetry.spans_dropped", "count", "lower", 0},

	{"runtime.mallocs_per_ex", "count", "lower", 0},
	{"runtime.fixed_alloc_mb", "MB", "lower", 0},
	{"runtime.gc_count", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON object a single-workload run prints as its last line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
