"""Exact-mode predictors against their per-substep gather formulations.

The production ``_two_phase_exact`` reads block sizes from a wrapped-
diagonal table and ``_spread_out_exact`` computes its arrival times a
slab of offsets at a time.  The straightforward formulations they
replaced gather ``sizes[s, d]`` with ``P×m`` index arrays per substep (or
per offset).  They live here only as oracles: every clock must match
them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import bruck_substeps
from repro.simmpi import THETA
from repro.timing.engine import (
    bruck_step,
    copy_time_blocks,
    copy_time_vec,
    dissemination_allreduce_cost,
    head_latency_vec,
    serial_time_vec,
)
from repro.timing.nonuniform import (
    _META_ENTRY_BYTES,
    _ROT_INDEX_COST_PER_PROC,
    _spread_out_exact,
    _two_phase_exact,
)


def _two_phase_gather(machine, sizes, radix=2):
    p = sizes.shape[0]
    clocks = np.zeros(p)
    clocks = dissemination_allreduce_cost(clocks, machine, p)
    clocks = clocks + p * _ROT_INDEX_COST_PER_PROC
    if int(sizes.max(initial=0)) == 0:
        return float(clocks.max())
    clocks = clocks + copy_time_vec(machine, np.diagonal(sizes))
    ranks = np.arange(p)
    for sub in bruck_substeps(p, radix):
        dist_k = np.asarray(sub.distances, dtype=np.int64)
        m = len(dist_k)
        clocks = bruck_step(clocks, machine, p, sub.jump,
                            _META_ENTRY_BYTES * m)
        low = dist_k % radix ** sub.step
        s = (ranks[:, None] + low[None, :]) % p
        d = (s - dist_k[None, :]) % p
        blk = sizes[s, d]
        bytes_out = blk.sum(axis=1).astype(np.float64)
        nz_out = (blk > 0).sum(axis=1).astype(np.float64)
        clocks = clocks + copy_time_blocks(machine, nz_out, bytes_out)
        clocks = bruck_step(clocks, machine, p, sub.jump, bytes_out)
        src = (ranks + sub.jump) % p
        clocks = clocks + copy_time_blocks(machine, nz_out[src],
                                           bytes_out[src])
    return float(clocks.max())


def _spread_out_gather(machine, sizes):
    p = sizes.shape[0]
    clocks = np.zeros(p)
    clocks = clocks + copy_time_vec(machine, np.diagonal(sizes))
    if p == 1:
        return float(clocks.max())
    base = clocks + (p - 1) * machine.o_recv
    ranks = np.arange(p)
    c = base + (p - 1) * machine.o_send
    for off in range(1, p):
        src = (ranks - off) % p
        nb = sizes[src, ranks]
        c = np.maximum(c, base[src] + off * machine.o_send
                       + head_latency_vec(machine, nb)) \
            + serial_time_vec(machine, nb, p)
    return float(c.max())


PROCS = [1, 2, 3, 5, 17, 64, 100, 257]
RADICES = [2, 3, 4, 7]


def _matrix(kind, p):
    rng = np.random.default_rng(1000 + p)
    sizes = np.zeros((p, p), dtype=np.int64)
    if kind == "one_hot":
        sizes[p // 2, p // 3] = 70_000  # past the eager threshold
    elif kind == "sparse":
        mask = rng.random((p, p)) < 0.05
        sizes[mask] = rng.integers(1, 40_000, size=int(mask.sum()))
    elif kind == "dense":
        sizes = rng.integers(0, 2048, size=(p, p), dtype=np.int64)
    return sizes


KINDS = ["zero", "one_hot", "sparse", "dense"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("radix", RADICES)
@pytest.mark.parametrize("p", PROCS)
def test_two_phase_matches_gather(p, radix, kind):
    sizes = _matrix(kind, p)
    assert _two_phase_exact(THETA, sizes, radix) == \
        _two_phase_gather(THETA, sizes, radix)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PROCS)
def test_spread_out_matches_gather(p, kind):
    sizes = _matrix(kind, p)
    assert _spread_out_exact(THETA, sizes) == _spread_out_gather(THETA, sizes)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 40), radix=st.integers(2, 9),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
def test_random_matrices_match_gather(p, radix, density, seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 100_000, size=(p, p), dtype=np.int64)
    sizes[rng.random((p, p)) >= density] = 0
    assert _two_phase_exact(THETA, sizes, radix) == \
        _two_phase_gather(THETA, sizes, radix)
    assert _spread_out_exact(THETA, sizes) == _spread_out_gather(THETA, sizes)
