"""Counters/histograms registry for the simulated runtime.

The :class:`MetricsRegistry` is the aggregate observability channel of an
SPMD run: while :mod:`repro.simmpi.tracing` records *per-event* logs, the
registry keeps cheap running aggregates —

* message and byte totals, plus a power-of-two **message-size histogram**;
* per-link ``(src, dst)`` traffic and the **maximum number of in-flight
  messages** per link and globally (the congestion signal the paper's
  Fig. 8 sensitivity study reasons about);
* per-step (per-tag) message/byte/in-flight/queue-wait aggregates — the
  Bruck algorithms use one tag per exchange step, so this is the per-step
  congestion table;
* simulated **queue-wait** time: how long retired messages sat delivered
  in their channel before the receiver got to them, and how long receivers
  idled waiting for the wire.

Every aggregate is a pure function of *simulated* timestamps, never of
host scheduling.  A message is **in flight** over the simulated interval
``[depart, landing_start]`` — from the instant its first byte leaves the
sender (post-fault-injection departure) until the receiver begins landing
it (``landing_start = max(receiver clock, head arrival)``).  The maxima
are computed at snapshot time by a sweep over those intervals, with the
pinned tie-break that at equal timestamps a departure counts before a
landing (touching intervals overlap, so every message registers a depth
of at least one).  Because the simulated timestamps are bit-identical
across the threads / coop / tensor backends, so are the metrics — the
older implementation counted posts and deliveries as host events and was
therefore scheduling-dependent on the threads backend.

Wait totals are accumulated per receiving rank (each rank appends its own
receives in program order — no lock needed) and combined at snapshot time
with :func:`math.fsum`, which is correctly rounded and therefore
independent of rank order.

The :class:`~repro.simmpi.network.Network` feeds the registry from
``post`` under its existing lock; the communicator feeds the per-receive
record from the rank threads through :meth:`MetricsRegistry.on_retire`.
When metrics are disabled the network holds ``None`` and pays a single
``is not None`` branch per message — near-zero overhead.

After a run the executor freezes the registry into a :class:`RunMetrics`
snapshot exposed as ``SPMDResult.metrics``.  Its per-link map is a
columnar :class:`LinkTable` — the tensor backend builds the same table —
so a snapshot of ``P * (P - 1)`` links holds four arrays, not a dict of
Python tuples.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Histogram",
    "LinkTable",
    "MetricsRegistry",
    "RunMetrics",
    "group_max_overlap",
    "max_overlap",
    "time_order",
]


class Counter:
    """A named monotonically-increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """Power-of-two bucketed histogram of non-negative integer samples.

    Bucket ``i >= 1`` holds samples in ``[2**(i-1) + 1, 2**i]``; bucket 0
    holds samples in ``[0, 1]``.  Powers of two match how message sizes
    cluster around the eager/rendezvous protocol tiers.
    """

    __slots__ = ("name", "_counts", "count", "total", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max_value = 0

    def add(self, value: int) -> None:
        bucket = int(value - 1).bit_length() if value > 0 else 0
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def add_bucket_counts(self, counts: Sequence[int], total: int,
                          max_value: int, n: int) -> None:
        """Bulk-merge pre-bucketed samples (the tensor backend's path).

        ``counts[i]`` is the number of samples in bucket ``i`` — the same
        bucketing rule as :meth:`add` (``(v - 1).bit_length()``).
        """
        for b, c in enumerate(counts):
            if c:
                self._counts[b] = self._counts.get(b, 0) + int(c)
        self.count += int(n)
        self.total += int(total)
        if max_value > self.max_value:
            self.max_value = int(max_value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(low, high, count)`` rows for every non-empty bucket."""
        rows = []
        for b in sorted(self._counts):
            low = 0 if b == 0 else (1 << (b - 1)) + 1
            high = 1 if b == 0 else 1 << b
            rows.append((low, high, self._counts[b]))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, sum={self.total})"


def time_order(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The sweep order of ``n`` intervals' ``2n`` events.

    Event ``i < n`` opens interval ``i`` and event ``n + i`` closes it.
    A stable sort over ``[starts, ends]`` orders events by time and, at
    equal timestamps, puts every opening before every closing — the
    pinned tie-break, so touching intervals overlap.  One order can feed
    :func:`max_overlap` and any number of :func:`group_max_overlap`
    calls over the same intervals.
    """
    times = np.concatenate([np.asarray(starts, dtype=np.float64),
                            np.asarray(ends, dtype=np.float64)])
    return np.argsort(times, kind="stable")


def _deltas(order: np.ndarray, n: int,
            weights: Optional[np.ndarray]) -> np.ndarray:
    """Signed depth change of each event of ``order`` over ``n``
    intervals: ``+weight`` opening, ``-weight`` closing (unit weights
    when ``weights`` is None)."""
    opens = order < n
    if weights is None:
        return np.where(opens, 1, -1)
    w = np.asarray(weights, dtype=np.int64)[np.where(opens, order,
                                                     order - n)]
    return np.where(opens, w, -w)


def max_overlap(starts: np.ndarray, ends: np.ndarray,
                weights: Optional[np.ndarray] = None,
                order: Optional[np.ndarray] = None) -> int:
    """Maximum number of simultaneously-open ``[start, end]`` intervals.

    Tie-break: at equal timestamps an interval *opening* is processed
    before an interval *closing*, so touching intervals overlap and every
    non-empty input yields at least ``min(weights)``.  ``weights`` lets a
    single interval stand for many identical messages (the tensor
    backend's lockstep pattern events).  ``order`` is a precomputed
    :func:`time_order` of the same intervals.
    """
    n = len(starts)
    if n == 0:
        return 0
    if order is None:
        order = time_order(starts, ends)
    return int(np.cumsum(_deltas(order, n, weights)).max())


def group_max_overlap(gids: np.ndarray, starts: np.ndarray,
                      ends: np.ndarray,
                      weights: Optional[np.ndarray] = None,
                      order: Optional[np.ndarray] = None,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`max_overlap` computed independently per integer group id.

    Returns ``(groups, maxima)``: the distinct group ids in ascending
    order and each group's maximum depth.  A group of one interval has
    its weight as maximum and takes no part in the sweep — in spread-out
    every link carries exactly one message.  The other groups' events
    are taken in time order (``order``, a precomputed :func:`time_order`
    of the same intervals), stably regrouped by id, and swept together:
    within each group the running depth is the global running sum minus
    the sum at the group's boundary.
    """
    gids = np.asarray(gids, dtype=np.int64)
    n = len(gids)
    by_gid = np.argsort(gids, kind="stable")
    g = gids[by_gid]
    bounds = np.flatnonzero(np.r_[True, g[1:] != g[:-1]]) if n else \
        np.zeros(0, dtype=np.int64)
    counts = np.diff(np.r_[bounds, n])
    groups = g[bounds]
    if weights is None:
        maxima = np.ones(len(groups), dtype=np.int64)
    else:
        maxima = np.asarray(weights, dtype=np.int64)[by_gid[bounds]]
    multi = counts > 1
    if not multi.any():
        return groups, maxima
    swept = np.zeros(n, dtype=bool)
    swept[by_gid] = np.repeat(multi, counts)
    if order is None:
        order = time_order(starts, ends)
    order = order[swept[order % n]]
    order = order[np.argsort(gids[order % n], kind="stable")]
    eg = gids[order % n]
    cum = np.cumsum(_deltas(order, n, weights))
    seg = np.flatnonzero(np.r_[True, eg[1:] != eg[:-1]])
    base = np.zeros(len(seg), dtype=np.int64)
    base[1:] = cum[seg[1:] - 1]
    depth = cum - np.repeat(base, np.diff(np.r_[seg, len(cum)]))
    maxima[multi] = np.maximum.reduceat(depth, seg)
    return groups, maxima


def _lookup(keys: np.ndarray, values: np.ndarray,
            at: np.ndarray) -> np.ndarray:
    """``values`` of the sorted ``keys`` at each of ``at``; 0 where a key
    is absent."""
    out = np.zeros(len(at), dtype=np.int64)
    if len(keys):
        pos = np.minimum(np.searchsorted(keys, at), len(keys) - 1)
        hit = keys[pos] == at
        out[hit] = values[pos[hit]]
    return out


class LinkTable(Mapping):
    """Read-only per-link table: ``(src, dst) -> (messages, nbytes,
    max_in_flight)``.

    Stored as aligned NumPy columns sorted by link id ``src * nprocs +
    dst``, so iteration runs in ascending ``(src, dst)`` order and a
    spread-out run's ``P * (P - 1)`` links cost four arrays, not a dict
    of tuples.  Values read back as tuples of Python ints.  A table
    compares equal to another table or to any mapping — a plain dict
    included, from either side — holding the same links and values.
    """

    __slots__ = ("nprocs", "ids", "messages", "nbytes", "max_in_flight")

    def __init__(self, nprocs: int, ids: np.ndarray, messages: np.ndarray,
                 nbytes: np.ndarray, max_in_flight: np.ndarray) -> None:
        """``ids`` must be distinct; the columns are reordered by id when
        they are not already ascending."""
        ids = np.asarray(ids, dtype=np.int64)
        cols = [np.asarray(c, dtype=np.int64)
                for c in (messages, nbytes, max_in_flight)]
        if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            cols = [c[order] for c in cols]
        self.nprocs = int(nprocs)
        self.ids = ids
        self.messages, self.nbytes, self.max_in_flight = cols

    @classmethod
    def empty(cls, nprocs: int) -> "LinkTable":
        z = np.zeros(0, dtype=np.int64)
        return cls(nprocs, z, z, z, z)

    def _pos(self, key) -> int:
        p = self.nprocs
        try:
            src, dst = key
            valid = 0 <= src < p and 0 <= dst < p
        except (TypeError, ValueError):
            valid = False
        if valid:
            link = src * p + dst
            pos = int(np.searchsorted(self.ids, link))
            if pos < len(self.ids) and self.ids[pos] == link:
                return pos
        raise KeyError(key)

    def _row(self, pos: int) -> Tuple[int, int, int]:
        return (int(self.messages[pos]), int(self.nbytes[pos]),
                int(self.max_in_flight[pos]))

    def __getitem__(self, key) -> Tuple[int, int, int]:
        return self._row(self._pos(key))

    def __contains__(self, key) -> bool:
        try:
            self._pos(key)
        except KeyError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        p = self.nprocs
        return (divmod(link, p) for link in self.ids.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, LinkTable) and other.nprocs == self.nprocs:
            return (np.array_equal(self.ids, other.ids)
                    and np.array_equal(self.messages, other.messages)
                    and np.array_equal(self.nbytes, other.nbytes)
                    and np.array_equal(self.max_in_flight,
                                       other.max_in_flight))
        if isinstance(other, Mapping):
            if len(other) != len(self):
                return False
            for key, value in other.items():
                try:
                    if self[key] != value:
                        return False
                except KeyError:
                    return False
            return True
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LinkTable(nprocs={self.nprocs}, links={len(self)})"


class MetricsRegistry:
    """Live aggregates of one SPMD run.

    The network-facing hook (:meth:`on_post`) is invoked under the
    network's lock; :meth:`on_retire` is invoked from rank threads but
    each rank only touches its own per-rank stores, so it is lock-free;
    :meth:`on_fault` takes the registry lock for the shared count table.
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.messages = Counter("messages")
        self.wire_bytes = Counter("wire_bytes")
        self.message_sizes = Histogram("message_nbytes")
        #: Per-link / per-step byte+message totals (in-flight maxima are
        #: derived from the flight intervals at snapshot time).
        self.per_link: Dict[Tuple[int, int], List[int]] = {}
        self.per_step: Dict[int, List[int]] = {}
        # Per-receiving-rank stores: each rank appends only to its own
        # slot, in program order, so no lock is needed and totals are
        # deterministic.
        self._flights: List[List[Tuple[int, int, int, float, float]]] = [
            [] for _ in range(nprocs)]
        self._qw_total = [0.0] * nprocs
        self._qw_max = [0.0] * nprocs
        self._rw_total = [0.0] * nprocs
        self._rw_max = [0.0] * nprocs
        self._step_qw_max: List[Dict[int, float]] = [
            {} for _ in range(nprocs)]
        #: Injected-fault aggregates (chaos runs): counts per fault kind
        #: and, per posting rank, the simulated delay added to departures.
        self.fault_counts: Dict[str, int] = {}
        self._delay_by_rank = [0.0] * nprocs
        self._lock = threading.Lock()

    # -- network-side hook (called under the network lock) ----------------
    def on_post(self, src: int, dst: int, tag: int, nbytes: int) -> None:
        """One message entered its channel."""
        self.messages.add()
        self.wire_bytes.add(nbytes)
        self.message_sizes.add(nbytes)
        link = self.per_link.get((src, dst))
        if link is None:
            link = self.per_link[(src, dst)] = [0, 0]
        link[0] += 1
        link[1] += nbytes
        step = self.per_step.get(tag)
        if step is None:
            step = self.per_step[tag] = [0, 0]
        step[0] += 1
        step[1] += nbytes

    # -- fault-engine hook (network post path or rank threads) -----------
    def on_fault(self, kind: str, delay: float = 0.0,
                 rank: Optional[int] = None) -> None:
        """Count one injected fault / reliability action.

        ``rank`` is the posting rank whose message the delay was added to;
        per-rank delay accumulation keeps ``injected_delay_total``
        independent of host scheduling (each rank's faults occur in its
        own program order; :func:`math.fsum` combines ranks at snapshot).
        """
        with self._lock:
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
            if delay:
                self._delay_by_rank[rank if rank is not None else 0] += delay

    # -- communicator-side hook (called from rank threads) ---------------
    def on_retire(self, src: int, dst: int, tag: int,
                  depart: float, head: float, clock: float) -> None:
        """Account one completed receive on rank ``dst``.

        ``depart`` is the message's simulated departure (post-fault),
        ``head`` the simulated arrival of its first byte, and ``clock``
        the receiver's simulated clock when it retired the message.  The
        wait decomposition — ``queue_wait = max(0, clock - head)`` (the
        message sat arrived-but-unretired) versus ``recv_wait = max(0,
        head - clock)`` (the receiver idled for the wire); exactly one is
        non-zero — and the flight interval ``[depart, max(clock, head)]``
        are derived here.  Only rank ``dst``'s thread touches rank
        ``dst``'s slots, so this needs no lock.
        """
        queue_wait = max(0.0, clock - head)
        recv_wait = max(0.0, head - clock)
        self._qw_total[dst] += queue_wait
        if queue_wait > self._qw_max[dst]:
            self._qw_max[dst] = queue_wait
        self._rw_total[dst] += recv_wait
        if recv_wait > self._rw_max[dst]:
            self._rw_max[dst] = recv_wait
        step_max = self._step_qw_max[dst]
        if queue_wait > step_max.get(tag, 0.0):
            step_max[tag] = queue_wait
        landing = clock if clock > head else head
        self._flights[dst].append((src, dst, tag, depart, landing))

    # -- snapshot ---------------------------------------------------------
    def snapshot(self, phase_times: Optional[Dict[str, float]] = None,
                 collective_times: Optional[Dict[str, float]] = None,
                 ) -> "RunMetrics":
        """Freeze the registry into an immutable-by-convention snapshot."""
        events = [ev for per_rank in self._flights for ev in per_rank]
        p = self.nprocs
        links = np.array([src * p + dst for src, dst in self.per_link],
                         dtype=np.int64)
        totals = np.array(list(self.per_link.values()),
                          dtype=np.int64).reshape(-1, 2)
        link_max = np.zeros(len(links), dtype=np.int64)
        if events:
            arr = np.asarray(events, dtype=np.float64)
            srcs = arr[:, 0].astype(np.int64)
            dsts = arr[:, 1].astype(np.int64)
            tags = arr[:, 2].astype(np.int64)
            starts = arr[:, 3]
            ends = arr[:, 4]
            order = time_order(starts, ends)
            global_max = max_overlap(starts, ends, order=order)
            flown, flown_max = group_max_overlap(srcs * p + dsts, starts,
                                                 ends, order=order)
            link_max = _lookup(flown, flown_max, links)
            step_tags, step_max = group_max_overlap(tags, starts, ends,
                                                    order=order)
            step_depth = dict(zip(step_tags.tolist(), step_max.tolist()))
        else:
            global_max = 0
            step_depth = {}
        per_link = LinkTable(p, links, totals[:, 0], totals[:, 1], link_max)
        step_qw: Dict[int, float] = {}
        for per_rank in self._step_qw_max:
            for tag, qw in per_rank.items():
                if qw > step_qw.get(tag, 0.0):
                    step_qw[tag] = qw
        per_step = {
            tag: (m, b, step_depth.get(tag, 0), step_qw.get(tag, 0.0))
            for tag, (m, b) in self.per_step.items()
        }
        return RunMetrics(
            nprocs=self.nprocs,
            total_messages=self.messages.value,
            total_bytes=self.wire_bytes.value,
            message_size_buckets=self.message_sizes.buckets(),
            max_message_nbytes=self.message_sizes.max_value,
            max_in_flight=global_max,
            per_link=per_link,
            per_step=per_step,
            queue_wait_total=math.fsum(self._qw_total),
            queue_wait_max=max(self._qw_max),
            recv_wait_total=math.fsum(self._rw_total),
            recv_wait_max=max(self._rw_max),
            phase_times=dict(phase_times or {}),
            collective_times=dict(collective_times or {}),
            fault_counts=dict(self.fault_counts),
            injected_delay_total=math.fsum(self._delay_by_rank),
        )


@dataclass
class RunMetrics:
    """Frozen aggregates of one SPMD run (``SPMDResult.metrics``).

    ``per_link`` is a read-only :class:`LinkTable` mapping ``(src, dst)``
    to ``(messages, nbytes, max_in_flight)`` tuples; ``per_step`` values
    are ``(messages, nbytes, max_in_flight, queue_wait_max)``;
    ``phase_times`` is the max-over-ranks table (the bulk-synchronous
    bound: everyone waits for the slowest rank).  All
    fields are pure functions of simulated time, so snapshots are
    bit-identical across backends and host schedules.
    """

    nprocs: int
    total_messages: int
    total_bytes: int
    message_size_buckets: List[Tuple[int, int, int]]
    max_message_nbytes: int
    max_in_flight: int
    per_link: LinkTable
    per_step: Dict[int, Tuple[int, int, int, float]]
    queue_wait_total: float
    queue_wait_max: float
    recv_wait_total: float
    recv_wait_max: float
    phase_times: Dict[str, float] = field(default_factory=dict)
    collective_times: Dict[str, float] = field(default_factory=dict)
    #: Injected-fault counts per kind (empty for clean-fabric runs) and
    #: the total simulated delay the fault engine added to departures.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    injected_delay_total: float = 0.0

    @property
    def total_faults(self) -> int:
        """Total injected faults / reliability actions of every kind."""
        return sum(self.fault_counts.values())

    @property
    def max_in_flight_per_link(self) -> int:
        """Largest concurrent queue depth observed on any single link."""
        return int(self.per_link.max_in_flight.max(initial=0))

    def busiest_links(self, limit: int = 5) -> List[Tuple[Tuple[int, int],
                                                          Tuple[int, int, int]]]:
        """The ``limit`` links carrying the most bytes, descending.

        Deterministic tie-break: links are ranked by ``(-nbytes, (src,
        dst))`` — equal-byte links appear in ascending ``(src, dst)``
        order, so the table is stable across runs and backends.
        """
        table = self.per_link
        n = len(table)
        limit = max(0, min(limit, n))
        if limit == 0:
            return []
        nb = table.nbytes
        # The limit-th largest byte count splits the table: every link
        # above it ranks, and ties at it fill the rest in id order.
        kth = np.partition(nb, n - limit)[n - limit]
        above = np.flatnonzero(nb > kth)
        tied = np.flatnonzero(nb == kth)[:limit - len(above)]
        pick = np.sort(np.concatenate([above, tied]))
        pick = pick[np.argsort(-nb[pick], kind="stable")]
        links = [divmod(link, table.nprocs)
                 for link in table.ids[pick].tolist()]
        return [(link, table[link]) for link in links]

    def step_table(self) -> List[Tuple[int, int, int, int, float]]:
        """Per-step rows ``(tag, messages, nbytes, max_in_flight,
        queue_wait_max)``, ordered by tag (the algorithms' step order)."""
        return [(tag,) + self.per_step[tag] for tag in sorted(self.per_step)]
