#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coop-clean-bytes --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer split (see ``layers.py``).  ``--small`` shrinks every workload
to a few ranks for the benchmark's own test.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the provenance record.
Each run also leaves its record (and, traced, its spans) in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from catalog import (ALGORITHMS, COUNTERS, END_TO_END, PER_LAYER,
                     SELF_TIMES)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Seed reserved for confirming a claimed gain; never used while tuning.
HELD_OUT_SEED = 7919
#: ``setup_s`` is the median of at least this many set-ups, repeated
#: until they have taken ``SETUP_SECONDS`` in all.
SETUP_REPS = 21
SETUP_SECONDS = 1.0
MIN_PASSES = 3
#: ``trace.coverage`` must lie within this distance of 1 (coop workloads).
COVERAGE_TOL = 0.05
#: String-hash seed of every run.  Randomised per process, it changes the
#: layout of every attribute and keyword dict, which moved the coop
#: workloads' pass times by up to 27% from one process to the next on the
#: same input; fixed, by about 5%.
HASH_SEED = "0"

median = statistics.median


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without spawning git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, trace: int, nproc: int) -> dict:
    import numpy
    from repro.simmpi import MACHINE_MODEL_VERSION
    return {"workload": workload, "seed": seed,
            "held_out_seed": HELD_OUT_SEED, "trace": trace,
            "machine_model_version": MACHINE_MODEL_VERSION,
            "git_commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": nproc}


def _sim_mismatches(label: str, first, second) -> list:
    """Outcomes of two passes must agree on every simulated value."""
    return [f"{label}: {a.alg} simulated values differ"
            for a, b in zip(first, second) if (a.ok, a.sim) != (b.ok, b.sim)]


def _wall_of(outcomes, alg: str) -> float:
    return next(o.wall for o in outcomes if o.alg == alg)


def _tally(wl, passes) -> tuple:
    attempted = failed = 0
    for outcomes in passes:
        a, f = wl.attempted_failed(outcomes)
        attempted += a
        failed += f
    return attempted, failed


def run_untraced(wl, seconds: float):
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        start = perf_counter()
        wl.setup()
        setups.append(perf_counter() - start)
    wl.run_pass()  # warm-up: lazy first-call set-up, caches filled
    passes = []
    begin = now = perf_counter()
    pass_wall = 0.0
    # Stop before a pass that would overrun the measured window.
    while len(passes) < MIN_PASSES or now + pass_wall <= begin + seconds:
        passes.append(wl.run_pass())
        pass_wall, now = perf_counter() - now, perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = wl.checks(passes[-1])
    for later in passes[1:]:
        problems += _sim_mismatches("pass-to-pass", passes[0], later)
    attempted, failed = _tally(wl, passes)
    values = {
        "setup_s": median(setups),
        "wall_s": median(sum(o.wall for o in p) for p in passes),
        # Per host second of the kernels (on model-fit, of the predictions).
        "sim_msgs_per_s": median(
            wl.messages(p) / sum(_wall_of(p, a) for a in ALGORITHMS)
            for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "success_frac": 1.0 - failed / attempted,
    }
    for alg in ALGORITHMS:
        values[f"wall_s.{alg}"] = median(_wall_of(p, alg) for p in passes)
        values[f"sim_makespan_s.{alg}"] = next(
            o.sim.get("makespan", float("nan"))
            for o in passes[-1] if o.alg == alg)
    return values, END_TO_END, attempted, failed, problems


def run_traced(wl, seconds: float, spans_path: Path):
    from layers import HARNESS, SpanTracer, split
    from scenarios import TensorNonuniform
    wl.setup()
    wl.run_pass()  # warm-up
    tracer = SpanTracer()
    untraced, traced, splits = [], [], []
    counts = None
    problems = []
    deadline = perf_counter() + seconds
    if not wl.observes_itself:
        # The measured path records no simulator statistics; observe the
        # same collectives with simulator tracing on, untraced and traced.
        observed = wl.observe_pass()
        with tracer.installed():
            problems += _sim_mismatches("traced vs untraced (observed)",
                                        observed, wl.observe_pass(tracer))
    pair_wall = 0.0
    while not traced or perf_counter() + pair_wall <= deadline:
        pair_start = start = perf_counter()
        plain = wl.run_pass()
        untraced.append((perf_counter() - start, plain))
        with tracer.installed():
            before, counted = tracer.snapshot(), Counter(tracer.counts)
            tracer.start()
            start = perf_counter()
            outs = wl.run_pass(tracer)
            tracer.flush()
            wall = perf_counter() - start
            tracer.recording = False  # keep the first traced pass's spans
        traced.append((wall, outs))
        splits.append(split(before, tracer.snapshot()))
        if counts is None:
            counts = tracer.counts - counted
        problems += _sim_mismatches("traced vs untraced", plain, outs)
        pair_wall = perf_counter() - pair_start
    if wl.observes_itself:
        observed = untraced[0][1]
    problems += wl.checks(observed)

    values = {name: median(s.get(layer, 0.0) for s in splits)
              for name, layer in SELF_TIMES}
    values.update({name: counts[name] for name in COUNTERS})
    values.update(wl.sim_values(observed, counts["simmpi.network.posts"]))
    for alg in ALGORITHMS:
        values[f"simmpi.tensor.metrics_s.{alg}"] = 0.0
    if isinstance(wl, TensorNonuniform):
        with tracer.installed():
            for out in wl.metrics_off_pass():
                on_wall = median(_wall_of(o, out.alg) for _, o in traced)
                values[f"simmpi.tensor.metrics_s.{out.alg}"] = \
                    on_wall - out.wall
    values["timing.clt_rel_err"] = max(
        abs(clt - exact) / exact
        for exact, clt in wl.predictions(observed).values())
    values["workloads.size_matrix_bytes"] = int(wl.sizes.nbytes)
    values["workloads.payload_bytes"] = wl.payload_bytes()
    coverage = median(sum(v for k, v in s.items() if k != HARNESS) / wall
                      for s, (wall, _) in zip(splits, traced))
    values["trace.coverage"] = coverage
    values["trace.overhead_s"] = (median(w for w, _ in traced)
                                  - median(w for w, _ in untraced))
    if wl.gates_coverage and abs(coverage - 1.0) > COVERAGE_TOL:
        problems.append(f"trace.coverage {coverage:.4f} is not within "
                        f"{COVERAGE_TOL} of 1")
    if not wl.faulted and (values["simmpi.faults.self_s"]
                           or values["faults.injected"]):
        problems.append("the fault engine ran on a clean fabric")

    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)
    attempted, failed = _tally(wl, [o for _, o in untraced + traced])
    return values, PER_LAYER, attempted, failed, problems


def fix_hash_seed() -> None:
    """Replace this process by itself with ``PYTHONHASHSEED`` fixed (no
    child process: ``execve`` keeps the process id)."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        sys.stdout.flush()
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="a few ranks per workload (for the test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.small)
    # Run on one CPU.  Coop runs one carrier thread at a time, so the load
    # needs no more; spread over two CPUs, every thread handoff is a
    # cross-CPU wake-up whose cost tracks the other CPU's load.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    if args.trace:
        values, spec, attempted, failed, problems = run_traced(
            wl, args.seconds, OUT / f"{args.workload}-spans.npz")
    else:
        values, spec, attempted, failed, problems = run_untraced(
            wl, args.seconds)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec}
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = provenance(args.workload, args.seed, args.trace, len(cpus))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"provenance": record, **result}, indent=1)
                  + "\n")
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    fix_hash_seed()
    sys.exit(main())
