"""CI smoke cells: named end-to-end checks at scales the unit suite skips.

Each cell is one function registered under a name with its wall-clock
budget.  ``main`` times the cell and fails it when it runs over budget;
every other check is an ``assert`` inside the cell.  CI runs each cell
as its own job (``.github/workflows/ci.yml``), and any cell runs the
same way locally.

Usage: PYTHONPATH=src python scripts/smoke.py <cell> [budget_s]

Run without arguments to list the cells.
"""

import json
import math
import sys
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.registry import (
    get_algorithm,
    list_algorithms,
    radix_algorithms,
)
from repro.simmpi import (
    ExecutionConfig,
    MessageCorruptError,
    THETA,
    run_spmd,
)
from repro.simmpi.tensor import TensorAlltoall, TensorAlltoallv
from repro.workloads import (
    PowerLawBlocks,
    block_size_matrix,
    build_vargs,
    distribution_by_name,
    verify_recv,
)

#: name -> (cell function, default wall budget in seconds or ``None``).
CELLS: Dict[str, Tuple[Callable[[], None], Optional[float]]] = {}


def cell(name: str, budget: Optional[float] = None):
    """Register the decorated function as smoke cell ``name``."""
    def register(fn: Callable[[], None]) -> Callable[[], None]:
        CELLS[name] = (fn, budget)
        return fn
    return register


def _phantom_nonuniform(name: str, sizes):
    """A rank program running non-uniform ``name`` on the phantom wire."""
    fn = get_algorithm(name, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=False)
        fn(comm, *vargs.as_tuple())
        return comm.clock

    return prog


# ----------------------------------------------------------------------
# Functional (coop) backend at large P
# ----------------------------------------------------------------------

@cell("phantom-p2048", budget=300.0)
def phantom_p2048() -> None:
    """Coop two-phase Bruck at P=2048 on the phantom wire."""
    # Twice the byte-verified large-P test's P: only reachable in a CI
    # budget because the phantom wire moves no payload bytes (the
    # simulated clocks are bit-identical to bytes mode — see
    # tests/simmpi/test_backend_equivalence.py).
    P, N = 2048, 32
    sizes = block_size_matrix(PowerLawBlocks(N), P, seed=11)
    res = run_spmd(_phantom_nonuniform("two_phase_bruck", sizes), P,
                   config=ExecutionConfig(
                       machine=THETA, backend="coop", trace="metrics",
                       wire="phantom", timeout=600.0))
    assert res.wire == "phantom" and res.elapsed > 0
    print(f"P={P} two_phase_bruck (phantom): "
          f"{res.elapsed * 1e3:.3f} simulated ms, "
          f"{res.total_messages} messages")


@cell("zero-rotation-p1024")
def zero_rotation_p1024() -> None:
    """Coop zero-rotation Bruck at P=1024, byte-verified on every rank."""
    P, N = 1024, 4
    fn = get_algorithm("zero_rotation_bruck", kind="uniform").fn

    def prog(comm):
        send = np.repeat(np.arange(P, dtype=np.uint16), N // 2)
        recv = np.zeros(P * (N // 2), dtype=np.uint16)
        fn(comm, send, recv, N)
        assert (recv == comm.rank).all()
        return comm.clock

    res = run_spmd(prog, P, config=ExecutionConfig(
        machine=THETA, backend="coop", trace="metrics"))
    assert res.metrics is not None and res.elapsed > 0
    print(f"P={P} zero_rotation_bruck: {res.elapsed * 1e3:.3f} "
          f"simulated ms, {res.total_messages} messages")


@cell("ppn-sweep", budget=240.0)
def ppn_sweep() -> None:
    """The locality kernels at P=256 across ppn in {1, 16, 64}."""
    # The locality-aware variants must delegate exactly to their flat
    # equivalents on the flat machine, and cut inter-node messages when
    # ppn > 1.
    P, N = 256, 32
    pairs = (("padded_bruck", "locality_padded_bruck"),
             ("two_phase_bruck", "locality_two_phase_bruck"))
    sizes = block_size_matrix(PowerLawBlocks(N), P, seed=13)

    def run(name, ppn):
        cfg = ExecutionConfig(
            machine=THETA.with_overrides(ppn=ppn), backend="coop",
            trace=True, wire="phantom", timeout=600.0)
        return run_spmd(_phantom_nonuniform(name, sizes), P, config=cfg)

    def inter_msgs(res, ppn):
        return sum(1 for tr in res.traces for e in tr.sends
                   if e.src // ppn != e.dst // ppn)

    for flat_name, loc_name in pairs:
        flat1 = run(flat_name, 1)
        loc1 = run(loc_name, 1)
        assert loc1.clocks == flat1.clocks, loc_name
        assert loc1.total_messages == flat1.total_messages
        for ppn in (16, 64):
            flat = run(flat_name, ppn)
            loc = run(loc_name, ppn)
            fm, lm = inter_msgs(flat, ppn), inter_msgs(loc, ppn)
            assert lm < fm, (loc_name, ppn, lm, fm)
            print(f"{loc_name} ppn={ppn}: {lm} inter-node msgs "
                  f"(flat {fm}), {max(loc.clocks) * 1e3:.3f} sim ms")


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------

@cell("chaos", budget=240.0)
def chaos() -> None:
    """A seeded drop+straggler plan at P=256 under the retry policy."""
    # Seeded fault plan at CI scale: messages drop and two ranks
    # straggle while the reliability transport retransmits.  The run
    # must complete inside the wall budget with faults actually
    # injected — the no-hang guarantee at P=256.
    P, N = 256, 64
    plan = "drop:p=0.01;straggler:ranks=7:133,factor=3"
    sizes = block_size_matrix(PowerLawBlocks(N), P, seed=5)
    res = run_spmd(_phantom_nonuniform("two_phase_bruck", sizes), P,
                   config=ExecutionConfig(
                       machine=THETA, backend="coop", trace="metrics",
                       wire="phantom", timeout=600.0, fault_plan=plan,
                       fault_seed=29, on_fault="retry"))
    counts = dict(res.metrics.fault_counts)
    assert counts.get("drop", 0) > 0, counts
    assert counts.get("retry", 0) == counts["drop"], counts
    assert not res.degraded_ranks
    print(f"P={P} two_phase_bruck chaos (coop/phantom): "
          f"{res.elapsed * 1e3:.3f} simulated ms, faults {counts}")


_BYZANTINE_ALGORITHM = "spread_out"   # direct pairwise: every channel used
_BYZANTINE_PLAN = "corrupt:p=0.02;forge:p=0.01;dup:p=0.03"


def _byzantine_prog(sizes, *, fill, verify):
    fn = get_algorithm(_BYZANTINE_ALGORITHM, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=fill)
        fn(comm, *vargs.as_tuple())
        if verify:
            verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.rank

    return prog


def _byzantine_cfg(**overrides) -> ExecutionConfig:
    return ExecutionConfig(machine=THETA, trace="metrics", timeout=300,
                           backend="coop", wire="phantom", fault_seed=23
                           ).replace(**overrides)


@cell("byzantine-chaos", budget=300.0)
def byzantine_chaos() -> None:
    """The corrupt/forge quadchotomy against the verified transport.

    P=256 on coop x phantom, one run per arm: (1) verify+retry absorbs
    every tampered and forged envelope; (2) the same plan under
    fail-fast is a typed :class:`MessageCorruptError`, never a hang;
    (3) a saturating liar under degrade is convicted and tombstoned;
    (4) without the verify tier the transport is provably blind.  Then
    P=16 on threads x bytes: the verified transport with real payloads,
    byte-verified end to end.
    """
    nprocs = 256
    sizes = block_size_matrix(PowerLawBlocks(64), nprocs, seed=3)
    prog = _byzantine_prog(sizes, fill=False, verify=False)

    # Arm 1: verified transport absorbs the chaos.
    res = run_spmd(prog, nprocs, config=_byzantine_cfg(
        fault_plan=_BYZANTINE_PLAN, on_fault="retry", reliability="verify"))
    counts = dict(res.metrics.fault_counts)
    assert res.returns == list(range(nprocs))
    assert not res.degraded_ranks
    assert counts.get("corrupt", 0) > 0, "plan injected no tampering"
    assert counts.get("forge", 0) > 0, "plan injected no forgeries"
    assert counts.get("corrupt_detected", 0) > 0, "verify saw nothing"
    assert counts.get("forge_rejected", 0) == counts.get("forge", 0), (
        "a forged envelope escaped the auth check")
    print(f"P={nprocs:>4} arm 1 (verify+retry):  "
          f"{res.elapsed * 1e3:9.4f} simulated ms, faults {counts}")

    # Arm 2: the same plan under fail-fast is a typed error, instantly.
    try:
        run_spmd(prog, nprocs, config=_byzantine_cfg(
            fault_plan=_BYZANTINE_PLAN, on_fault="fail-fast",
            reliability="verify"))
    except Exception as exc:
        original = getattr(exc, "original", exc)
        assert isinstance(original, MessageCorruptError), original
        print(f"P={nprocs:>4} arm 2 (fail-fast):     typed "
              f"{type(original).__name__}: {original}")
    else:
        raise AssertionError("fail-fast returned success under tampering")

    # Arm 3: a saturating liar under degrade is convicted, not obeyed.
    res = run_spmd(prog, nprocs, config=_byzantine_cfg(
        fault_plan="corrupt:p=1,src=3", on_fault="degrade",
        reliability="verify"))
    assert res.degraded_ranks == [3], res.degraded_ranks
    assert res.degraded
    print(f"P={nprocs:>4} arm 3 (degrade):       convicted and tombstoned "
          f"rank {res.degraded_ranks}, survivors completed")

    # Arm 4: without the verify tier the transport is provably blind.
    res = run_spmd(prog, nprocs, config=_byzantine_cfg(
        fault_plan=_BYZANTINE_PLAN, on_fault="retry", reliability="retry"))
    counts = dict(res.metrics.fault_counts)
    assert counts.get("corrupt", 0) > 0
    assert counts.get("corrupt_detected", 0) == 0, (
        "plain retry claims detections it cannot make")
    assert counts.get("forge_rejected", 0) == 0
    print(f"P={nprocs:>4} arm 4 (no verify):     {counts.get('corrupt')} "
          f"tampered + {counts.get('forge')} forged envelopes delivered "
          f"undetected — Byzantine delivery possible, as documented")

    # Real payloads on the thread backend, byte-verified on every rank.
    nprocs = 16
    sizes = block_size_matrix(PowerLawBlocks(64), nprocs, seed=3)
    res = run_spmd(_byzantine_prog(sizes, fill=True, verify=True), nprocs,
                   config=_byzantine_cfg(
                       backend="threads", wire="bytes",
                       fault_plan=_BYZANTINE_PLAN, on_fault="retry",
                       reliability="verify"))
    counts = dict(res.metrics.fault_counts)
    assert res.returns == list(range(nprocs))
    assert counts.get("corrupt_detected", 0) > 0
    print(f"P={nprocs:>4} bytes wire:            "
          f"byte-verified on every rank under {counts}")


# ----------------------------------------------------------------------
# Tensor backend at the paper's P=32768
# ----------------------------------------------------------------------

_TENSOR_P = 32768
_TENSOR_BLOCK = 64
_TENSOR_CONFIG = ExecutionConfig(machine=THETA, trace=False,
                                 backend="tensor", wire="phantom")


def _report(label: str, res, wall: float) -> None:
    clock = max(res.clocks)
    assert clock > 0 and len(res.clocks) == _TENSOR_P
    assert res.total_messages > 0
    print(f"{label:38s} {wall:7.2f}s host wall  "
          f"{clock * 1e3:12.4f} simulated ms  "
          f"{res.total_messages:>12} messages")


@cell("tensor-scale", budget=300.0)
def tensor_scale() -> None:
    """Every registered algorithm at P=32768 on the tensor backend.

    Non-uniform algorithms run with constant per-pair sizes — the only
    form that needs no 32K x 32K size matrix — which the equivalence
    matrix separately pins bit-identical to coop at small P.
    """
    specs = [(f"uniform/{name}", TensorAlltoall(name, _TENSOR_BLOCK))
             for name in list_algorithms("uniform")]
    specs += [(f"nonuniform/{name}", TensorAlltoallv(name, _TENSOR_BLOCK))
              for name in list_algorithms("nonuniform")]
    for label, spec in specs:
        t0 = time.perf_counter()
        res = run_spmd(spec, _TENSOR_P, config=_TENSOR_CONFIG)
        _report(label, res, time.perf_counter() - t0)


@cell("radix-sweep", budget=300.0)
def radix_sweep() -> None:
    """Every radix-capable kernel at P=32768 with r in {2, 8}.

    The r=2 parameterization must reproduce the unparameterized kernel's
    simulated clocks bit-identically at full scale — the radix dial's
    backward-compatibility contract.
    """
    specs = {"uniform": TensorAlltoall, "nonuniform": TensorAlltoallv}
    for kind, spec in specs.items():
        for name in radix_algorithms(kind):
            baseline = None
            for radix in (2, 8):
                t0 = time.perf_counter()
                res = run_spmd(spec(name, _TENSOR_BLOCK, radix=radix),
                               _TENSOR_P, config=_TENSOR_CONFIG)
                wall = time.perf_counter() - t0
                if radix == 2:
                    base = run_spmd(spec(name, _TENSOR_BLOCK), _TENSOR_P,
                                    config=_TENSOR_CONFIG)
                    assert res.clocks == base.clocks, (
                        f"{name}: radix=2 clocks differ from the "
                        f"unparameterized baseline")
                    baseline = max(res.clocks)
                _report(f"{kind}/{name} r={radix}", res, wall)
            assert baseline is not None


_CP_PLAN = "delay:d=30us,jitter=15us,p=0.3;straggler:ranks=2:77,factor=3"
_CP_STRAGGLERS = (2, 77)


def _check_attribution(nprocs: int, fault_plan, spec) -> None:
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
        for r in _CP_STRAGGLERS:
            assert cp.per_rank[r].fault_delay > 0.0, r
        clean = [a.fault_delay for a in cp.per_rank
                 if a.rank not in _CP_STRAGGLERS]
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


@cell("critical-path", budget=300.0)
def critical_path() -> None:
    """Attribution conservation on the tensor backend.

    Every rank's makespan must split into buckets that ``fsum`` exactly
    to its clock, and the extracted path must end exactly at the
    makespan: at P=2048 under a seeded straggler+delay plan (which must
    charge only the stragglers), at P=32768 lockstep, and for a P=2048
    non-uniform ``spread_out`` whose per-link table must hold all
    ``P * (P - 1)`` direct links.
    """
    _check_attribution(2048, _CP_PLAN,
                       TensorAlltoallv("two_phase_bruck", _TENSOR_BLOCK))
    _check_attribution(_TENSOR_P, None,
                       TensorAlltoallv("two_phase_bruck", _TENSOR_BLOCK))
    sizes = block_size_matrix(
        distribution_by_name("power_law", _TENSOR_BLOCK), 2048, seed=31)
    _check_attribution(2048, None, TensorAlltoallv("spread_out", sizes))


# ----------------------------------------------------------------------
# Benchmark artifact
# ----------------------------------------------------------------------

@cell("backend-scaling-artifact")
def backend_scaling_artifact() -> None:
    """Schema of the artifact ``bench_backend_scaling.py`` writes."""
    with open("BENCH_backend_scaling.json") as f:
        rec = json.load(f)
    assert rec["machine_model_version"] >= 2
    rows = rec["data"]["rows"]
    assert rows[-1]["nprocs"] == 4096
    assert all(r["attribution"]["transmit"] > 0 for r in rows)
    print(f"artifact ok: {len(rows)} rows, machine-model "
          f"v{rec['machine_model_version']}")


def main(argv) -> int:
    if not 1 <= len(argv) <= 2 or argv[0] not in CELLS:
        print("usage: smoke.py <cell> [budget_s]\n\ncells:", file=sys.stderr)
        for name, (fn, budget) in CELLS.items():
            limit = f"{budget:.0f}s" if budget is not None else "none"
            print(f"  {name:26s} budget {limit:5s} "
                  f"{fn.__doc__.splitlines()[0]}", file=sys.stderr)
        return 2
    fn, budget = CELLS[argv[0]]
    if len(argv) == 2:
        budget = float(argv[1])
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    limit = f" (budget {budget:.0f}s)" if budget is not None else ""
    print(f"\n{argv[0]}: {wall:.1f}s host wall{limit}")
    if budget is not None and wall >= budget:
        print(f"FAIL: exceeded the {budget:.0f}s wall budget")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
