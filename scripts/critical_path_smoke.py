"""Observability smoke: attribution conservation at CI scale.

Three tensor-backend runs under one wall budget:

* P=2048 with a seeded straggler+delay plan — the critical-path engine
  must decompose every rank's makespan into buckets that ``fsum``
  exactly to the rank's simulated clock, end the extracted path exactly
  at the run's makespan, and charge the straggler surcharge to the
  straggling ranks only;
* P=32768 lockstep (the paper's largest configuration) with
  ``trace="metrics"`` — the vectorized aggregates and the attribution
  must hold at full paper scale, where per-event tracing is impossible;
* P=2048 non-uniform ``spread_out`` with ``trace="metrics"`` — the
  per-link table must hold all ``P * (P - 1)`` direct links, each with
  one message in flight at most.

Usage: PYTHONPATH=src python scripts/critical_path_smoke.py [budget_s]
"""

import math
import sys
import time

from repro.simmpi import ExecutionConfig, THETA, run_spmd
from repro.simmpi.tensor import TensorAlltoallv
from repro.workloads import block_size_matrix, distribution_by_name

ALGORITHM = "two_phase_bruck"
BLOCK = 64
PLAN = "delay:d=30us,jitter=15us,p=0.3;straggler:ranks=2:77,factor=3"
STRAGGLERS = (2, 77)


def check(nprocs: int, fault_plan, spec=None) -> None:
    spec = spec or TensorAlltoallv(ALGORITHM, BLOCK)
    config = ExecutionConfig(machine=THETA, trace="metrics",
                             backend="tensor", wire="phantom",
                             fault_plan=fault_plan, fault_seed=29)
    t0 = time.perf_counter()
    res = run_spmd(spec, nprocs, config=config)
    cp = res.critical_path()
    wall = time.perf_counter() - t0

    assert res.metrics is not None and res.metrics.total_messages > 0
    assert len(cp.per_rank) == nprocs
    for attr in cp.per_rank:
        # The conservation law, exactly: buckets fsum to the rank clock.
        assert attr.total() == attr.makespan, (
            f"rank {attr.rank}: buckets fsum to {attr.total()!r}, "
            f"clock is {attr.makespan!r}")
        assert attr.makespan == res.clocks[attr.rank]
    assert cp.path[-1].end == res.elapsed, (
        f"path ends at {cp.path[-1].end!r}, makespan {res.elapsed!r}")
    totals = cp.bucket_totals()
    assert math.fsum(totals.values()) > 0
    if fault_plan is not None:
        for r in STRAGGLERS:
            assert cp.per_rank[r].fault_delay > 0.0, r
        clean = [a.fault_delay for a in cp.per_rank
                 if a.rank not in STRAGGLERS]
        assert all(v == 0.0 for v in clean), "non-straggler paid surcharge"
        assert cp.injected_delay > 0.0
    else:
        assert totals["fault_delay"] == 0.0
    if spec.algorithm == "spread_out":
        # Every ordered pair is one direct link carrying one message.
        links = res.metrics.per_link
        assert len(links) == nprocs * (nprocs - 1), len(links)
        assert res.metrics.max_in_flight_per_link == 1
    pct = {k: f"{100 * v / math.fsum(totals.values()):.1f}%"
           for k, v in totals.items()}
    print(f"P={nprocs:>6} {spec.algorithm} "
          f"({'faulted' if fault_plan else 'clean'}): {wall:6.2f}s host "
          f"wall, {res.elapsed * 1e3:10.4f} simulated ms, "
          f"{res.metrics.total_messages} messages, attribution {pct}")


def main(wall_budget: float = 300.0) -> int:
    start = time.perf_counter()
    check(2048, PLAN)
    check(32768, None)
    sizes = block_size_matrix(distribution_by_name("power_law", BLOCK),
                              2048, seed=31)
    check(2048, None, TensorAlltoallv("spread_out", sizes))
    total = time.perf_counter() - start
    print(f"\ncritical-path smoke: {total:.1f}s host wall "
          f"(budget {wall_budget:.0f}s)")
    if total >= wall_budget:
        print(f"FAIL: exceeded the {wall_budget:.0f}s wall budget")
        return 1
    return 0


if __name__ == "__main__":
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 300.0
    sys.exit(main(budget))
