"""Machine-readable run ledger: one JSON record per observed SPMD run.

Perf numbers that only ever exist as console output can't be trended,
diffed across machine-model versions, or fed to a tuner.  The ledger
fixes that: any :func:`repro.simmpi.run_spmd` call with metrics enabled
(``trace="metrics"`` / ``"full"``) and ``ExecutionConfig(ledger=path)``
appends one self-describing JSON line to ``path``:

* ``ledger_version`` — schema version of the record itself;
* ``machine_model_version`` — the cost-model revision that produced the
  numbers (:data:`repro.simmpi.machine.MACHINE_MODEL_VERSION`), so stale
  records are detectable after a model recalibration;
* ``config`` / ``config_fingerprint`` — the full execution config and a
  stable SHA-256 digest of it, for grouping runs of the same setup;
* ``metrics`` — the :class:`~repro.simmpi.metrics.RunMetrics`
  aggregates (totals, congestion maxima, wait totals, phase tables,
  fault counters — everything except the O(P^2)-able per-link map);
* ``attribution`` — the critical-path bucket totals
  (:mod:`repro.simmpi.critical_path`) when the run recorded enough to
  compute them, else ``None``.

Records are JSON Lines — append-only, greppable, loadable one by one —
and every value is a plain scalar/list/dict so any tool can consume them
without importing this package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.simmpi.machine import MACHINE_MODEL_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.simmpi.config import ExecutionConfig
    from repro.simmpi.executor import SPMDResult

__all__ = ["LEDGER_VERSION", "config_fingerprint", "run_record",
           "append_record", "append_run", "read_ledger", "iter_ledger",
           "query_ledger"]

#: Schema version of ledger records.  Bump when a field changes meaning;
#: adding fields is backward compatible and does not bump it.
LEDGER_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Recursively render dataclasses/tuples/dict-keys to plain JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_describe(config: "ExecutionConfig") -> Dict[str, Any]:
    """The execution config as a plain JSON-able dict."""
    desc = _jsonable(config)
    desc.pop("ledger", None)  # where the record lands, not what ran
    return desc


def config_fingerprint(config: "ExecutionConfig") -> str:
    """Stable SHA-256 digest of an execution config.

    Two runs share a fingerprint iff their machine profile, backend,
    wire, trace mode, fault plan/seed, failure policy and reliability
    transport all match — the grouping key for trend lines.  The
    ``ledger`` path itself is excluded (writing the same run to a
    different file must not change its identity).
    """
    canonical = json.dumps(config_describe(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _metrics_summary(metrics) -> Dict[str, Any]:
    """RunMetrics aggregates minus the potentially O(P^2) link table.

    The ``LinkTable`` itself stays out of the record (a spread-out run
    has ``P * (P - 1)`` rows); its array reductions — link count,
    deepest link, top-5 busiest links — go in instead."""
    return {
        "nprocs": metrics.nprocs,
        "total_messages": metrics.total_messages,
        "total_bytes": metrics.total_bytes,
        "max_message_nbytes": metrics.max_message_nbytes,
        "message_size_buckets": _jsonable(metrics.message_size_buckets),
        "max_in_flight": metrics.max_in_flight,
        "max_in_flight_per_link": metrics.max_in_flight_per_link,
        "links_used": len(metrics.per_link),
        "busiest_links": [
            {"link": list(link), "messages": m, "nbytes": b,
             "max_in_flight": mif}
            for link, (m, b, mif) in metrics.busiest_links(limit=5)],
        "steps": len(metrics.per_step),
        "queue_wait_total": metrics.queue_wait_total,
        "queue_wait_max": metrics.queue_wait_max,
        "recv_wait_total": metrics.recv_wait_total,
        "recv_wait_max": metrics.recv_wait_max,
        "phase_times": _jsonable(metrics.phase_times),
        "collective_times": _jsonable(metrics.collective_times),
        "fault_counts": _jsonable(metrics.fault_counts),
        "injected_delay_total": metrics.injected_delay_total,
    }


def run_record(result: "SPMDResult", *,
               algorithm: Optional[str] = None,
               distribution: Optional[str] = None,
               extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build one ledger record for a completed run.

    ``algorithm``/``distribution`` label what the workload was — the
    config only describes *how* it executed.  ``extra`` merges arbitrary
    caller keys (e.g. a benchmark name) into the record top level.
    """
    cfg = result.config
    record: Dict[str, Any] = {
        "ledger_version": LEDGER_VERSION,
        "machine_model_version": MACHINE_MODEL_VERSION,
        "machine": result.machine.name,
        "nprocs": result.nprocs,
        "algorithm": algorithm,
        "distribution": distribution,
        "elapsed_s": result.elapsed,
        "degraded_ranks": list(result.degraded_ranks),
    }
    if cfg is not None:
        record["backend"] = cfg.backend
        record["wire"] = cfg.wire
        record["trace"] = cfg.trace
        record["config_fingerprint"] = config_fingerprint(cfg)
        record["config"] = config_describe(cfg)
    record["metrics"] = (_metrics_summary(result.metrics)
                        if result.metrics is not None else None)
    try:
        cp = result.critical_path()
    except ValueError:
        record["attribution"] = None
    else:
        record["attribution"] = {
            "buckets": cp.bucket_totals(),
            "granularity": cp.granularity,
            "injected_delay": cp.injected_delay,
            "path_segments": len(cp.path),
            "path_ranks": cp.path_ranks(),
            "slowest_rank": cp.slowest().rank,
        }
    if extra:
        record.update(extra)
    return record


def append_record(path: str, record: Dict[str, Any]) -> None:
    """Append one record to the JSONL ledger at ``path`` (creating it)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def append_run(path: str, result: "SPMDResult", **labels: Any) -> Dict[str, Any]:
    """Record one run into the ledger; returns the appended record."""
    record = run_record(result, **labels)
    append_record(path, record)
    return record


def iter_ledger(path: str) -> Iterator[Dict[str, Any]]:
    """Yield ledger records in append order (empty if no file).

    A malformed *final* line is skipped silently: it is the signature of
    a run killed mid-append, and dropping it loses only the run that
    already failed.  A malformed line with valid records *after* it means
    real corruption and still raises ``ValueError``.
    """
    if not os.path.exists(path):
        return
    pending: Optional[Exception] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                raise ValueError(
                    f"{path}: malformed ledger record on a non-final "
                    f"line ({pending})")
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                pending = ValueError(f"line {lineno}: {exc}")


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """All records of the JSONL ledger at ``path`` (empty if absent)."""
    return list(iter_ledger(path))


#: Query keys that match a top-level record field of the same name.
_QUERY_FIELDS = ("algorithm", "distribution", "machine", "nprocs",
                 "backend", "wire", "config_fingerprint", "radix")


def query_ledger(path: str, *, predicate=None,
                 **where: Any) -> List[Dict[str, Any]]:
    """Records matching every given field filter, in append order.

    Keyword filters compare against the record's top-level field of the
    same name (supported: ``algorithm``, ``distribution``, ``machine``,
    ``nprocs``, ``backend``, ``wire``, ``config_fingerprint``,
    ``radix``); records missing the field never match.  ``predicate``,
    when given, is an extra ``record -> bool`` applied after the field
    filters.  Tolerates a truncated final line like :func:`iter_ledger`.
    """
    unknown = set(where) - set(_QUERY_FIELDS)
    if unknown:
        raise TypeError(
            f"unknown query fields {sorted(unknown)}; "
            f"known: {list(_QUERY_FIELDS)}")
    out: List[Dict[str, Any]] = []
    for rec in iter_ledger(path):
        if any(k not in rec or rec[k] != v for k, v in where.items()):
            continue
        if predicate is not None and not predicate(rec):
            continue
        out.append(rec)
    return out
