package main

// metricDef is one entry of the benchmark's metric catalogue. The
// catalogue must list exactly the metrics of BENCHMARK.json, with the same
// units and better-directions (the smoke test checks both).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees; every workload
// prints all of them from an untraced run. The unit of work is the MD
// timestep on the MD workloads and the request on serve-mixed (see
// README.md for the per-workload meaning of each name).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_iqm_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
}

// perLayer are the metrics of single layers, printed by the traced run.
// Every workload prints every name; a layer the workload does not run (or
// cannot observe from outside the program) reads 0.
var perLayer = []metricDef{
	// md
	{"md.step_self_ms", "ms", "lower"},
	{"md.respa_inner_ms", "ms", "lower"},
	// core
	{"core.force_p50_ms", "ms", "lower"},
	{"core.force_tail_ms", "ms", "lower"},
	{"core.pairs_per_s", "1/s", "higher"},
	{"core.pair_work", "count", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
	// plan (tensor/kern and o3 beneath it), per compiled replay
	{"plan.linear_fwd_ms", "ms", "lower"},
	{"plan.tp_fwd_ms", "ms", "lower"},
	{"plan.linear_bwd_ms", "ms", "lower"},
	{"plan.tp_bwd_ms", "ms", "lower"},
	{"plan.env_rows_ms", "ms", "lower"},
	{"plan.radial_ms", "ms", "lower"},
	{"plan.other_ms", "ms", "lower"},
	{"plan.replays_per_step", "count", "lower"},
	// temporal reuse engine
	{"reuse.pair_reuse_frac", "frac", "higher"},
	{"reuse.active_centers_per_step", "count", "lower"},
	{"reuse.full_evals", "count", "lower"},
	{"reuse.force_rms_err_ev_a", "eV/A", "lower"},
	// domain runtime, in-process
	{"domain.force_p50_ms", "ms", "lower"},
	{"domain.exchange_wait_ms", "ms", "lower"},
	{"domain.comm_wall_ms", "ms", "lower"},
	{"domain.overlap_frac", "frac", "higher"},
	{"domain.interior_ms", "ms", "lower"},
	{"domain.frontier_ms", "ms", "lower"},
	{"domain.reduce_ms", "ms", "lower"},
	{"domain.owned_imbalance", "ratio", "lower"},
	{"domain.max_ghosts", "count", "lower"},
	{"domain.fwd_bytes_per_step", "B", "lower"},
	{"domain.rev_bytes_per_step", "B", "lower"},
	{"domain.rebuild_step_ms", "ms", "lower"},
	{"domain.steady_step_ms", "ms", "lower"},
	{"domain.rebuilds_per_100", "count", "lower"},
	{"domain.migrations_per_100", "count", "lower"},
	// domain runtime, remote fleet
	{"domain.remote_force_p50_ms", "ms", "lower"},
	{"domain.remote_overhead_ms", "ms", "lower"},
	{"domain.replicate_ms", "ms", "lower"},
	{"domain.scaling_eff", "frac", "higher"},
	// transport
	{"transport.frames_per_step", "count", "lower"},
	{"transport.bytes_per_step", "B", "lower"},
	{"transport.latency_us", "us", "lower"},
	{"transport.bandwidth_mbps", "MB/s", "higher"},
	// serve
	{"serve.service_p50_ms", "ms", "lower"},
	{"serve.service_tail_ms", "ms", "lower"},
	{"serve.http_ms", "ms", "lower"},
	{"serve.registry_hit_frac", "frac", "higher"},
	{"serve.compiles", "count", "lower"},
	{"serve.evictions", "count", "lower"},
	{"serve.swap_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.ef_p50_ms", "ms", "lower"},
	{"serve.traj_p50_ms", "ms", "lower"},
	// attribution: each layer's self time per unit of work and the part of
	// the measured wall time no layer accounts for
	{"attr.op_wall_ms", "ms", "lower"},
	{"attr.md_self_ms", "ms", "lower"},
	{"attr.core_self_ms", "ms", "lower"},
	{"attr.plan_self_ms", "ms", "lower"},
	{"attr.domain_self_ms", "ms", "lower"},
	{"attr.http_self_ms", "ms", "lower"},
	{"attr.serve_self_ms", "ms", "lower"},
	{"attr.residual_ms", "ms", "lower"},
	// tracing cost
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.spans", "count", "lower"},
}
