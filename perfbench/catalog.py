"""The benchmark's metric names and units (``BENCHMARK.json`` lists the
same metrics, with their bounds)."""

ALGORITHMS = ("two_phase_bruck", "padded_bruck", "spread_out")
CP_BUCKETS = ("overhead", "transmit", "congestion", "queue_wait", "compute",
              "fault_delay")

END_TO_END = (
    [("setup_s", "s"), ("wall_s", "s")]
    + [(f"wall_s.{a}", "s") for a in ALGORITHMS]
    + [("sim_msgs_per_s", "1/s"), ("peak_rss_mb", "MB")]
    + [(f"sim_makespan_s.{a}", "s") for a in ALGORITHMS]
    + [("success_frac", "ratio")]
)

#: Per-layer self-time metric → the tracer's layer name.
SELF_TIMES = (
    [("core.self_s", "core"), ("core.selector.self_s", "core.selector")]
    + [(f"simmpi.{m}.self_s", f"simmpi.{m}") for m in (
        "executor", "communicator", "network", "scheduler", "faults",
        "tracing", "metrics", "critical_path", "trace_export")]
    + [(f"simmpi.tensor.self_s.{a}", f"simmpi.tensor.{a}")
       for a in ALGORITHMS]
    + [("workloads.payload.self_s", "workloads.payload"),
       ("workloads.distributions.self_s", "workloads.distributions")]
    + [(f"timing.self_s.{a}", f"timing.{a}") for a in ALGORITHMS]
    + [("gc.self_s", "gc")]
)

#: Call counters kept by the tracer's wrappers.
COUNTERS = ("simmpi.network.posts", "simmpi.network.collects",
            "simmpi.scheduler.blocks", "simmpi.faults.decisions",
            "simmpi.tracing.records", "timing.predicts")

PER_LAYER = (
    [(name, "s") for name, _ in SELF_TIMES]
    + [(name, "count") for name in COUNTERS]
    + [(f"simmpi.tensor.metrics_s.{a}", "s") for a in ALGORITHMS]
    + [("workloads.size_matrix_bytes", "B"), ("workloads.payload_bytes", "B"),
       ("faults.injected", "count"), ("faults.retries", "count"),
       ("faults.corrupt_detected", "count"),
       ("faults.forge_rejected", "count"), ("faults.retry_ratio", "ratio"),
       ("sim.messages", "count"), ("sim.bytes", "B"),
       ("sim.max_in_flight", "count"), ("sim.queue_wait_s", "s")]
    + [(f"sim.cp.{b}_s", "s") for b in CP_BUCKETS]
    + [("timing.clt_rel_err", "ratio"),
       ("trace.coverage", "ratio"), ("trace.overhead_s", "s")]
)
