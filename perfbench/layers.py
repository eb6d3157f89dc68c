"""Span tracer for the traced benchmark run.

The program itself carries no host-time instrumentation.  For the traced
run this module wraps the public entry points of each layer from the
outside (class attributes and module attributes are swapped for thin
wrappers and restored afterwards), records one span per call and charges
host time to layers:

* every wrapped call is a *boundary crossing* on entry and on exit;
* at each crossing, the host time since the previous crossing anywhere in
  the process is charged to the top layer of the crossing thread's stack.

Each thread keeps its own layer stack.  The coop backend runs exactly one
carrier thread at a time, so the charges telescope: the layer self times
sum to the traced wall time, and the time a rank spends parked in a
scheduler handoff lands in ``simmpi.scheduler`` (the layer on top of the
stack of the rank that resumes).  A thread's first crossing seeds its
stack with a base layer: ``bench`` for the main thread (the harness's own
glue) and ``simmpi.executor`` for carrier threads (the executor's
``worker`` frame that runs each rank program).

Spans record ``(id, layer, start, end, parent id, collective id)`` and
stay in memory until :meth:`SpanTracer.write` saves them.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Base layer of the main thread: the benchmark harness, not the program.
HARNESS = "bench"


class SpanTracer:
    """Layer stacks, exclusive self time, counters and spans."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._last = perf_counter()
        self._next_id = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: Id of the collective (or model-fit step) in progress; the
        #: workloads advance it.
        self.collective = -1
        self.recording = True

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = [(HARNESS if main else "simmpi.executor", -1, 0.0)]
            self._tls.stack = stack
        return stack

    def start(self) -> None:
        """Begin charging: the next crossing pays from this instant."""
        self._last = perf_counter()

    def flush(self) -> None:
        """Charge the time since the last crossing to this thread's top
        layer (closes a measured interval)."""
        now = perf_counter()
        self.self_s[self._stack()[-1][0]] += now - self._last
        self._last = now

    def enter(self, layer: str) -> None:
        now = perf_counter()
        stack = self._stack()
        self.self_s[stack[-1][0]] += now - self._last
        self._last = now
        stack.append((layer, self._next_id, now))
        self._next_id += 1

    def exit(self) -> None:
        now = perf_counter()
        stack = self._stack()
        layer, span_id, start = stack.pop()
        self.self_s[layer] += now - self._last
        self._last = now
        if self.recording:
            self.spans.append((span_id, layer, start, now, stack[-1][1],
                               self.collective))

    def snapshot(self) -> Dict[str, float]:
        return dict(self.self_s)

    def wrap(self, layer, fn: Callable, counter: Optional[str] = None
             ) -> Callable:
        """Wrap ``fn``; ``layer`` is a name or a function of the call's
        arguments (for per-algorithm layers)."""
        tracer = self
        layer_of = layer if callable(layer) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(layer_of(args) if layer_of else layer)
            if counter is not None:
                tracer.counts[counter] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Swap every layer entry point for its wrapper, then restore."""
        saved = []
        for owner, name, layer, counter in _entry_points():
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(layer, raw.__func__, counter))
            else:
                new = self.wrap(layer, raw, counter)
            saved.append((owner, name, raw))
            setattr(owner, name, new)
        try:
            yield self
        finally:
            for owner, name, raw in reversed(saved):
                setattr(owner, name, raw)

    def write(self, path) -> None:
        """Save the recorded spans as ``.npz`` arrays."""
        layers = sorted({s[1] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez(path,
                 layer_names=np.array(layers, dtype=str),
                 span_id=np.array(cols[0], dtype=np.int64),
                 layer=np.array([index[n] for n in cols[1]], dtype=np.int32),
                 start=np.array(cols[2], dtype=np.float64),
                 end=np.array(cols[3], dtype=np.float64),
                 parent=np.array(cols[4], dtype=np.int64),
                 collective=np.array(cols[5], dtype=np.int32))


def _public_functions(cls, prefix: str = "") -> List[str]:
    return [name for name, value in cls.__dict__.items()
            if name.startswith(prefix) and not name.startswith("_")
            and (callable(value) or isinstance(value, classmethod))
            and not isinstance(value, (property, staticmethod))]


def _entry_points() -> List[Tuple[object, str, object, Optional[str]]]:
    """``(owner, attribute, layer, counter)`` for every wrapped entry."""
    from repro import timing
    from repro.core.selector import PerformanceModel
    from repro.simmpi import communicator, executor, faults, metrics
    from repro.simmpi import network, request, scheduler, tensor, tracing
    from repro.workloads import distributions, payload

    points: List[Tuple[object, str, object, Optional[str]]] = []
    add = points.append
    add((executor, "run_spmd", "simmpi.executor", None))
    for name in _public_functions(communicator.Communicator):
        add((communicator.Communicator, name, "simmpi.communicator", None))
    for cls in (request.Request, request.SendRequest, request.RecvRequest):
        add((cls, "wait", "simmpi.communicator", None))
    for cls in (network.Network, scheduler.CoopNetwork):
        add((cls, "post", "simmpi.network", "simmpi.network.posts"))
        add((cls, "collect", "simmpi.network", "simmpi.network.collects"))
    add((scheduler.CoopScheduler, "block_current", "simmpi.scheduler",
         "simmpi.scheduler.blocks"))
    add((scheduler.CoopScheduler, "notify_key", "simmpi.scheduler", None))
    add((faults.FaultInjector, "on_post", "simmpi.faults",
         "simmpi.faults.decisions"))
    add((faults.FaultInjector, "flush", "simmpi.faults", None))
    for cls in (tracing.RankTrace, tracing.MetricsTrace):
        for name in _public_functions(cls, "record_"):
            add((cls, name, "simmpi.tracing", "simmpi.tracing.records"))
    for name in _public_functions(metrics.MetricsRegistry, "on_"):
        add((metrics.MetricsRegistry, name, "simmpi.metrics", None))
    add((executor.SPMDResult, "critical_path", "simmpi.critical_path", None))
    add((executor.SPMDResult, "export_chrome_trace", "simmpi.trace_export",
         None))
    def tensor_layer(args):  # run_tensor(spec, ...) / spec.evaluate(...)
        return f"simmpi.tensor.{args[0].algorithm}"

    def timing_layer(args):  # vendor MPI_Alltoallv is spread-out based
        alg = "spread_out" if args[0] == "vendor" else args[0]
        return f"timing.{alg}"

    add((tensor, "run_tensor", tensor_layer, None))
    for cls in tensor.TensorProgram.__subclasses__():
        if "evaluate" in cls.__dict__:
            add((cls, "evaluate", tensor_layer, None))
    add((timing, "predict_alltoallv", timing_layer, "timing.predicts"))
    for name in _public_functions(PerformanceModel):
        add((PerformanceModel, name, "core.selector", None))
    add((distributions, "block_size_matrix", "workloads.distributions",
         None))
    for cls in vars(distributions).values():
        if isinstance(cls, type) and "sample" in cls.__dict__ and \
                issubclass(cls, distributions.BlockSizeDistribution):
            add((cls, "sample", "workloads.distributions", None))
    add((payload, "build_vargs", "workloads.payload", None))
    add((payload, "verify_recv", "workloads.payload", None))
    return points


def split(before: Dict[str, float], after: Dict[str, float]
          ) -> Dict[str, float]:
    """Self time per layer accrued between two snapshots."""
    return {k: after.get(k, 0.0) - before.get(k, 0.0)
            for k in set(before) | set(after)}
