package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches keeps the two in
// step); the bounds of the end-to-end metrics live only there.
type metricDef struct {
	name, unit, better string
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move; for an end-to-end metric, what it measures.
	moves string
}

// endToEnd are reported with tracing off. Setup is excluded from all but
// setup_s.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "dataset generation and sharding, plus mesh establishment on mesh-tcp (median of the run's set-ups)"},
	{"iters_per_s", "1/s", "higher", "ADMM iterations completed per second of job wall time"},
	{"iter_ms_p50", "ms", "lower", "median wall time per iteration"},
	{"iter_ms_tail", "ms", "lower", "the workload's tail percentile of iteration wall time (highest with >=10 iterations beyond it)"},
	{"time_to_tol_s", "s", "lower", "median job wall time until primal and dual residuals are both <= tol_frac x the iteration-0 primal residual"},
	{"final_objective_ratio", "frac", "lower", "global L1-logistic objective at the final consensus iterate over that at the iteration-0 one"},
	{"sim_system_s", "s", "lower", "simnet virtual system time of one job (mesh-tcp: modeled compute time of its solves)"},
	{"wire_bytes_per_iter", "B", "lower", "modeled payload bytes per iteration (mesh-tcp: real TCP bytes sent)"},
	{"cpu_s_per_iter", "s", "lower", "process user+sys CPU per iteration over the timed jobs"},
	{"heap_peak_mb", "MiB", "lower", "peak live heap, sampled each iteration"},
	{"resident_state_bytes", "B", "lower", "largest per-rank consensus state (mesh-tcp: the benchmark-owned x, y, z)"},
}

// perLayer are reported by the traced run. Metrics a workload does not
// exercise read 0 there; the moves text names the workload each one is for.
var perLayer = []metricDef{
	{"runtime.gc_cpu_frac", "frac", "lower", "iters_per_s on mesh-tcp and engine-guarded"},
	{"runtime.alloc_bytes_per_iter", "B", "lower", "heap_peak_mb; about 0 on the engine workloads (steady-state iterations)"},
	{"runtime.sched_latency_p90_us", "us", "lower", "iter_ms_tail on mesh-tcp"},
	{"runtime.idle_core_frac", "frac", "lower", "iters_per_s on engine-solve and engine-guarded"},
	{"dataset.generate_s", "s", "lower", "setup_s"},
	{"dataset.shard_s", "s", "lower", "setup_s"},
	{"transport.mesh_setup_s", "s", "lower", "setup_s on mesh-tcp (0 on the engine workloads)"},
	{"solver.cpu_frac", "frac", "lower", "iter_ms_p50 and time_to_tol_s on engine-solve"},
	{"solver.solve_ms_p50", "ms", "lower", "iter_ms_p50 and time_to_tol_s on engine-solve"},
	{"solver.hessvec_per_solve", "count", "lower", "iter_ms_p50 and time_to_tol_s on engine-solve"},
	{"solver.newton_per_solve", "count", "lower", "iter_ms_p50 and time_to_tol_s on engine-solve"},
	{"solver.funevals_per_solve", "count", "lower", "iter_ms_p50 and time_to_tol_s on engine-solve"},
	{"solver.sim_cal_s", "s", "lower", "sim_system_s"},
	{"solver.apply_us_p50", "us", "lower", "iter_ms_p50 on mesh-tcp"},
	{"kernel.cpu_frac", "frac", "lower", "solver.solve_ms_p50 on engine-solve"},
	{"kernel.hessvec_us", "us", "lower", "solver.solve_ms_p50 on engine-solve"},
	{"kernel.eval_us", "us", "lower", "solver.solve_ms_p50 on engine-solve"},
	{"kernel.hessvec_bytes_computed", "B", "lower", "solver.solve_ms_p50 on engine-solve (computed from CSR sizes, not measured)"},
	{"collective.cpu_frac", "frac", "lower", "iter_ms_p50 on engine-guarded"},
	{"collective.recv_wait_ms_per_iter", "ms", "lower", "iter_ms_p50 on mesh-tcp"},
	{"core.cpu_frac", "frac", "lower", "iter_ms_p50 on engine-guarded"},
	{"core.iter_first_ms", "ms", "lower", "time_to_tol_s (work moved into the first iteration)"},
	{"core.sim_comm_s", "s", "lower", "sim_system_s on the engine workloads"},
	{"watchdog.cpu_frac", "frac", "lower", "iter_ms_p50 on engine-guarded"},
	{"transport.msgs_per_iter", "count", "lower", "wire_bytes_per_iter on mesh-tcp"},
	{"transport.send_us_p50", "us", "lower", "iter_ms_p50 on mesh-tcp"},
	{"transport.cpu_frac", "frac", "lower", "iter_ms_p50 on mesh-tcp"},
	{"transport.recv_errors", "count", "lower", "failed_frac on mesh-tcp (must be 0)"},
	{"transport.frames_corrupt", "count", "lower", "failed_frac on mesh-tcp (must be 0)"},
	{"wire.cpu_frac", "frac", "lower", "transport.send_us_p50 on mesh-tcp"},
	{"wire.crc_cpu_frac", "frac", "lower", "transport.send_us_p50 on mesh-tcp"},
	{"wire.frame_roundtrip_us", "us", "lower", "transport.send_us_p50 on mesh-tcp"},
	{"wlg.gg_rtt_us_p50", "us", "lower", "iter_ms_p50 on mesh-tcp"},
	{"wlg.cpu_frac", "frac", "lower", "iter_ms_p50 on mesh-tcp"},
	{"trace.coverage_frac", "frac", "higher", "mesh-tcp: iteration time covered by child spans; engine: CPU samples charged to a named layer"},
	{"trace.overhead_frac", "frac", "lower", "1 - traced iters_per_s / untraced iters_per_s"},
}
