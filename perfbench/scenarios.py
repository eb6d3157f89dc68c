"""The benchmark's four workloads.

Every workload is a closed loop: one caller issues the next collective
(or model fit) only after the previous one returned.  All use the Theta
machine profile and power-law block sizes with N=64, and run
``two_phase_bruck``, ``padded_bruck`` and ``spread_out``.  The seed feeds
``block_size_matrix``, ``fault_seed`` and the model's own sampling; the
program receives only the generated inputs.

A workload exposes:

* ``setup()``: input generation, fault-plan parse, config and program
  build (timed repeatedly for ``setup_s``);
* ``run_pass(tracer)``: one measured pass over the three kernels,
  returning one :class:`Outcome` per collective (or model-fit step);
  each timed step ends with a full garbage collection (see
  :func:`_collect`);
* ``checks(outcomes)``: correctness gates run outside the timed section;
* ``sim_values(outcomes, posts)``: the ``sim.*`` and ``faults.*``
  per-layer values of one pass.

Call sites go through module attributes (``executor.run_spmd``,
``payload.build_vargs``, ...) so that the traced run's wrappers, which
swap those attributes, see every call.
"""

from __future__ import annotations

import gc
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import timing
from repro.core.registry import get_algorithm
from repro.core.selector import (DEFAULT_BLOCKS, DEFAULT_PROCS,
                                 PerformanceModel)
from repro.schedule.schedules import fabric_schedule, fabric_volume
from repro.simmpi import THETA, ExecutionConfig, SimMPIError, executor
from repro.simmpi.faults import FAULT_KINDS
from repro.simmpi.tensor import TensorAlltoallv
from repro.workloads import PowerLawBlocks, distributions, payload

from catalog import ALGORITHMS, CP_BUCKETS

MAX_BLOCK = 64
CHAOS_PLAN = "drop:p=0.02;dup:p=0.01;reorder:p=0.05;corrupt:p=0.02;forge:p=0.01"
#: Relative agreement required between the tensor engine and the exact
#: analytic predictor on the same size matrix.
EXACT_RTOL = 1e-9


@dataclass
class Outcome:
    """One collective (or one model-fit step) of a pass."""

    alg: str
    wall: float
    ok: bool
    #: Simulated values: identical from pass to pass and between the
    #: traced and untraced runs.
    sim: Dict[str, object] = field(default_factory=dict)


def _collect(tracer=None) -> float:
    """Run a full garbage collection; return its host time.

    Every timed step ends with one, inside its timing.  The step so pays
    for collecting all the garbage it left, and the next step starts
    from the same collector state, instead of inheriting a share of an
    earlier step's collections.  Traced, the collection is the ``gc``
    layer."""
    collect = gc.collect if tracer is None else tracer.wrap("gc", gc.collect)
    start = perf_counter()
    collect()
    return perf_counter() - start


def _sim_of(result, cp=None) -> Dict[str, object]:
    sim: Dict[str, object] = {
        "makespan": result.elapsed,
        "clocks": tuple(result.clocks),
        "messages": result.total_messages,
        "bytes": result.total_bytes,
    }
    m = result.metrics
    if m is not None:
        sim["max_in_flight"] = m.max_in_flight
        sim["queue_wait"] = m.queue_wait_total
        sim["fault_counts"] = dict(sorted(m.fault_counts.items()))
    if cp is not None:
        slow = cp.slowest()
        sim["cp"] = {b: getattr(slow, b) for b in CP_BUCKETS}
    return sim


class Workload:
    name = ""
    nprocs = 0
    #: False when the measured path runs with simulator tracing off, so
    #: the ``sim.*`` values need a separate observation pass.
    observes_itself = True
    #: The traced run must account for (nearly) all of its wall time.
    gates_coverage = False
    #: Faults are injected; on a clean fabric the fault engine stays idle.
    faulted = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sizes = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> List[Outcome]:
        raise NotImplementedError

    def checks(self, outcomes: List[Outcome]) -> List[str]:
        return []

    def attempted_failed(self, outcomes: List[Outcome]) -> Tuple[int, int]:
        return len(outcomes), sum(not o.ok for o in outcomes)

    def messages(self, outcomes: List[Outcome]) -> int:
        """Simulated messages of one pass."""
        return sum(o.sim.get("messages", 0) for o in outcomes)

    def predictions(self, outcomes: List[Outcome]
                    ) -> Dict[str, Tuple[float, float]]:
        """``(exact, clt)`` predictions of the three kernels on this
        workload's (P, distribution, seed)."""
        dist = PowerLawBlocks(MAX_BLOCK)
        return {alg: tuple(
                    timing.predict_alltoallv(alg, THETA, self.nprocs, dist,
                                             seed=self.seed,
                                             mode=mode).elapsed
                    for mode in ("exact", "clt"))
                for alg in ALGORITHMS}

    def payload_bytes(self) -> int:
        """Computed bytes the pass's collectives deliver."""
        return int(self.sizes.sum()) * len(ALGORITHMS)

    def sim_values(self, outcomes: List[Outcome], posts: int) -> dict:
        """``sim.*`` (summed over the kernels; in-flight as the max) and
        ``faults.*`` of one pass."""
        sims = [o.sim for o in outcomes if o.sim]
        values = {
            "sim.messages": sum(s["messages"] for s in sims),
            "sim.bytes": sum(s["bytes"] for s in sims),
            "sim.max_in_flight": max(s["max_in_flight"] for s in sims),
            "sim.queue_wait_s": sum(s["queue_wait"] for s in sims),
        }
        for b in CP_BUCKETS:
            values[f"sim.cp.{b}_s"] = sum(s["cp"][b] for s in sims)
        faults = Counter()
        for s in sims:
            faults.update(s["fault_counts"])
        values["faults.injected"] = sum(faults[k] for k in FAULT_KINDS)
        values["faults.retries"] = faults["retry"]
        values["faults.corrupt_detected"] = faults["corrupt_detected"]
        values["faults.forge_rejected"] = faults["forge_rejected"]
        values["faults.retry_ratio"] = faults["retry"] / posts if posts \
            else 0.0
        return values


class CoopWorkload(Workload):
    """Byte-wire collectives on the cooperative backend."""

    trace = "off"
    fault_plan: Optional[str] = None
    reliability: Optional[str] = None
    on_fault = "fail-fast"
    gates_coverage = True

    def setup(self) -> None:
        dist = PowerLawBlocks(MAX_BLOCK)
        self.sizes = distributions.block_size_matrix(dist, self.nprocs,
                                                     seed=self.seed)
        self.config = self._config(self.trace)
        self.kernels = {alg: get_algorithm(alg, kind="nonuniform").fn
                        for alg in ALGORITHMS}

    def _config(self, trace: str) -> ExecutionConfig:
        return ExecutionConfig(machine=THETA, trace=trace, backend="coop",
                               wire="bytes", fault_plan=self.fault_plan,
                               fault_seed=self.seed,
                               reliability=self.reliability,
                               on_fault=self.on_fault)

    def _collective(self, alg: str, config: ExecutionConfig,
                    tracer) -> Outcome:
        """One alltoallv, classified by the never-silent quadchotomy:
        only a byte-correct, non-degraded result counts as success; a
        typed error, a degraded partial or a loud Byzantine delivery
        (``verify_recv`` naming the corrupted block) counts as failed."""
        sizes, kernel = self.sizes, self.kernels[alg]
        if tracer is not None:
            tracer.collective += 1
            kernel = tracer.wrap("core", kernel)

        def prog(comm):
            vargs = payload.build_vargs(comm.rank, sizes)
            kernel(comm, *vargs.as_tuple())
            payload.verify_recv(comm.rank, sizes, vargs.recvbuf)

        ok, sim = False, {}
        start = perf_counter()
        try:
            result = executor.run_spmd(prog, self.nprocs, config=config)
            cp = None
            if config.events_on:  # the `repro trace` post-run analysis
                cp = result.critical_path()
                result.export_chrome_trace(None)
        except (AssertionError, SimMPIError):
            wall = perf_counter() - start
        else:
            wall = perf_counter() - start
            ok, sim = not result.degraded_ranks, _sim_of(result, cp)
            del result, cp  # garbage for the closing collection
        return Outcome(alg, wall + _collect(tracer), ok, sim)

    def run_pass(self, tracer=None) -> List[Outcome]:
        return [self._collective(alg, self.config, tracer)
                for alg in ALGORITHMS]

    def observe_pass(self, tracer=None) -> List[Outcome]:
        """The same collectives with simulator tracing on."""
        full = self._config("full")
        return [self._collective(alg, full, tracer) for alg in ALGORITHMS]


class CoopCleanBytes(CoopWorkload):
    name = "coop-clean-bytes"
    observes_itself = False

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed)
        self.nprocs = 16 if small else 128


class CoopChaosTraced(CoopWorkload):
    name = "coop-chaos-traced"
    trace = "full"
    fault_plan = CHAOS_PLAN
    reliability = "verify"
    on_fault = "retry"
    faulted = True

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed)
        self.nprocs = 16 if small else 128


class TensorNonuniform(Workload):
    """Phantom-wire tensor engine with simulator metrics on."""

    name = "tensor-nonuniform"

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed)
        self.nprocs = 64 if small else 1024

    def setup(self) -> None:
        dist = PowerLawBlocks(MAX_BLOCK)
        self.sizes = distributions.block_size_matrix(dist, self.nprocs,
                                                     seed=self.seed)
        self.configs = {
            trace: ExecutionConfig(machine=THETA, trace=trace,
                                   backend="tensor", wire="phantom")
            for trace in ("metrics", "off")}
        self.specs = {alg: TensorAlltoallv(alg, self.sizes)
                      for alg in ALGORITHMS}

    def _collective(self, alg: str, trace: str, tracer=None) -> Outcome:
        if tracer is not None:
            tracer.collective += 1
        start = perf_counter()
        result = executor.run_spmd(self.specs[alg], self.nprocs,
                                   config=self.configs[trace])
        cp = result.critical_path() if trace == "metrics" else None
        wall = perf_counter() - start
        sim = _sim_of(result, cp)
        del result, cp  # garbage for the closing collection
        return Outcome(alg, wall + _collect(tracer), True, sim)

    def run_pass(self, tracer=None) -> List[Outcome]:
        return [self._collective(alg, "metrics", tracer)
                for alg in ALGORITHMS]

    def metrics_off_pass(self) -> List[Outcome]:
        return [self._collective(alg, "off") for alg in ALGORITHMS]

    def checks(self, outcomes: List[Outcome]) -> List[str]:
        """Each makespan must match the exact analytic predictor on the
        same seed (and hence the same size matrix)."""
        problems = []
        predictions = self.predictions(outcomes)
        for out in outcomes:
            exact = predictions[out.alg][0]
            if not math.isclose(out.sim["makespan"], exact,
                                rel_tol=EXACT_RTOL):
                problems.append(
                    f"{out.alg}: tensor makespan {out.sim['makespan']!r} "
                    f"!= exact prediction {exact!r}")
        return problems


class ModelFit(Workload):
    """``PerformanceModel.fit`` plus exact and CLT predictions.

    No simulator runs here: the simulated counts describe the fabric
    schedules that the exact predictions evaluate."""

    name = "model-fit"

    def __init__(self, seed: int, small: bool) -> None:
        super().__init__(seed)
        self.nprocs = 64 if small else 2048
        self.procs = (16, 64) if small else DEFAULT_PROCS
        self.blocks = (16, 64) if small else DEFAULT_BLOCKS

    def setup(self) -> None:
        self.dist = PowerLawBlocks(MAX_BLOCK)
        # The matrix the exact predictor samples from the same seed; the
        # benchmark uses it for the computed-bytes and message counts.
        self.sizes = distributions.block_size_matrix(self.dist, self.nprocs,
                                                     seed=self.seed)

    def run_pass(self, tracer=None) -> List[Outcome]:
        if tracer is not None:
            tracer.collective += 1
        start = perf_counter()
        model = PerformanceModel.fit(THETA, procs=self.procs,
                                     blocks=self.blocks, seed=self.seed)
        wall = perf_counter() - start
        ok = self._frontiers_ok(model)
        del model  # garbage for the closing collection
        outs = [Outcome("fit", wall + _collect(tracer), ok)]
        for alg in ALGORITHMS:
            if tracer is not None:
                tracer.collective += 1
            start = perf_counter()
            exact, clt = (timing.predict_alltoallv(
                alg, THETA, self.nprocs, self.dist, seed=self.seed,
                mode=mode).elapsed for mode in ("exact", "clt"))
            wall = perf_counter() - start + _collect(tracer)
            ok = all(math.isfinite(v) and v > 0 for v in (exact, clt))
            outs.append(Outcome(alg, wall, ok,
                                {"makespan": exact, "clt": clt}))
        return outs

    def _frontiers_ok(self, model: PerformanceModel) -> bool:
        """Well-formed: one point per grid P in order, each threshold 0
        (never wins) or a grid block size, and a recommendation at every
        grid P."""
        allowed = {0, *self.blocks}
        for frontier in (model.two_phase_frontier, model.padded_frontier):
            if [pt.nprocs for pt in frontier] != list(self.procs):
                return False
            if any(pt.max_block not in allowed for pt in frontier):
                return False
        return all(model.recommend(p, MAX_BLOCK) for p in self.procs)

    def attempted_failed(self, outcomes: List[Outcome]) -> Tuple[int, int]:
        """Frontier points plus one prediction pair per kernel."""
        points = 2 * len(self.procs)
        failed = sum(points if o.alg == "fit" else 1
                     for o in outcomes if not o.ok)
        return points + len(ALGORITHMS), failed

    @cached_property
    def counts(self) -> Dict[str, Dict[str, int]]:
        """Messages and bytes of the fabric schedules the exact
        predictions evaluate (the dissemination allreduce is not part of
        a fabric schedule)."""
        return {alg: fabric_volume(fabric_schedule(
                    alg, "nonuniform", self.nprocs, sizes=self.sizes))
                for alg in ALGORITHMS}

    def messages(self, outcomes: List[Outcome]) -> int:
        return sum(c["messages"] for c in self.counts.values())

    def predictions(self, outcomes: List[Outcome]
                    ) -> Dict[str, Tuple[float, float]]:
        return {o.alg: (o.sim["makespan"], o.sim["clt"])
                for o in outcomes if o.alg in ALGORITHMS}

    def sim_values(self, outcomes: List[Outcome], posts: int) -> dict:
        values = dict.fromkeys(
            ["sim.max_in_flight", "faults.injected", "faults.retries",
             "faults.corrupt_detected", "faults.forge_rejected"], 0)
        values.update(dict.fromkeys(
            ["sim.queue_wait_s", "faults.retry_ratio"]
            + [f"sim.cp.{b}_s" for b in CP_BUCKETS], 0.0))
        values["sim.messages"] = self.messages(outcomes)
        values["sim.bytes"] = sum(c["bytes"] for c in self.counts.values())
        return values


WORKLOADS = {cls.name: cls for cls in
             (CoopCleanBytes, CoopChaosTraced, TensorNonuniform, ModelFit)}
