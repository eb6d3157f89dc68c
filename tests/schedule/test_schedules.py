"""Cross-validation: analytic schedules == functional message traces.

Every (dst, nbytes) pair, in program order, for every algorithm, rank,
and workload — if an implementation's communication structure drifts
from its documented schedule, these tests fail.
"""

import numpy as np
import pytest

from repro.core.nonuniform import alltoallv
from repro.core.registry import list_algorithms
from repro.core.uniform import alltoall
from repro.schedule import nonuniform_schedule, schedule_volume, uniform_schedule
from repro.simmpi import MAX_USER_TAG, run_spmd
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs


def traced_sends(res):
    """Per-rank (dst, nbytes) sequences, user-tag messages only."""
    return [[(e.dst, e.nbytes) for e in t.sends if e.tag < MAX_USER_TAG]
            for t in res.traces]


class TestUniformSchedules:
    @pytest.mark.parametrize("algorithm",
                             [n for n in list_algorithms("uniform")
                              if n != "vendor"])
    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    def test_matches_trace(self, algorithm, p):
        n = 16

        def prog(comm):
            send = np.zeros(p * n, dtype=np.uint8)
            recv = np.zeros(p * n, dtype=np.uint8)
            alltoall(comm, send, recv, n, algorithm=algorithm)
        res = run_spmd(prog, p)
        traces = traced_sends(res)
        for rank in range(p):
            expect = [(m.dst, m.nbytes)
                      for m in uniform_schedule(algorithm, rank, p, n)]
            assert traces[rank] == expect, (algorithm, rank)

    def test_zero_block_size_empty(self):
        assert uniform_schedule("basic_bruck", 0, 8, 0) == []

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            uniform_schedule("nope", 0, 8, 8)


# The grouped (leader-based) algorithm has data-dependent multi-hop
# routing and no analytic schedule; its structure is asserted directly in
# tests/core/test_grouped.py instead.
SCHEDULED = [n for n in list_algorithms("nonuniform")
             if n not in ("grouped", "vendor")]


class TestNonuniformSchedules:
    @pytest.mark.parametrize("algorithm", SCHEDULED)
    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_trace(self, algorithm, p, seed):
        sizes = block_size_matrix(UniformBlocks(48), p, seed=seed)

        def prog(comm):
            args = build_vargs(comm.rank, sizes)
            alltoallv(comm, *args.as_tuple(), algorithm=algorithm)
        res = run_spmd(prog, p)
        if algorithm == "padded_alltoall":
            # Its exchange runs through the builtin alltoall, which uses
            # internal tags: keep exactly the max_n-sized data messages.
            max_n = int(sizes.max())
            traces = [[(e.dst, e.nbytes) for e in t.sends
                       if e.nbytes == max_n] for t in res.traces]
        else:
            traces = traced_sends(res)
        for rank in range(p):
            expect = [(m.dst, m.nbytes)
                      for m in nonuniform_schedule(algorithm, rank, sizes)]
            assert traces[rank] == expect, (algorithm, rank)

    def test_all_zero_sizes_empty_for_bruck_family(self):
        sizes = np.zeros((6, 6), dtype=np.int64)
        for algorithm in ("padded_bruck", "two_phase_bruck", "sloav"):
            assert nonuniform_schedule(algorithm, 2, sizes) == []

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            nonuniform_schedule("nope", 0, np.ones((2, 2), dtype=np.int64))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            nonuniform_schedule("spread_out", 0,
                                np.ones((2, 3), dtype=np.int64))


class TestVolumeAccounting:
    def test_bruck_volume_factor(self):
        # Bruck moves ~log2(P)/2 times spread-out's volume: the paper's
        # central trade-off, checked from schedules alone.
        p, n = 64, 100
        sizes = np.full((p, p), n, dtype=np.int64)
        so = sum(schedule_volume(
            nonuniform_schedule("spread_out", r, sizes))["bytes"]
            for r in range(p))
        tp = sum(schedule_volume(
            nonuniform_schedule("two_phase_bruck", r, sizes))["data_bytes"]
            for r in range(p)) - 0  # data only
        factor = tp / so
        import math
        assert factor == pytest.approx(math.log2(p) / 2, rel=0.15)

    def test_two_phase_meta_volume(self):
        p = 8
        sizes = np.full((p, p), 10, dtype=np.int64)
        vol = schedule_volume(nonuniform_schedule("two_phase_bruck", 0,
                                                  sizes))
        from repro.core.common import num_steps, send_block_distances
        expect_meta = sum(4 * len(send_block_distances(k, p))
                          for k in range(num_steps(p)))
        assert vol["meta_bytes"] == expect_meta

    def test_padded_exceeds_two_phase(self):
        p = 16
        sizes = block_size_matrix(UniformBlocks(64), p, seed=1)
        padded = sum(schedule_volume(
            nonuniform_schedule("padded_bruck", r, sizes))["bytes"]
            for r in range(p))
        tp = sum(schedule_volume(
            nonuniform_schedule("two_phase_bruck", r, sizes))["bytes"]
            for r in range(p))
        assert padded > 1.5 * tp


class TestFabricSchedules:
    """The whole-fabric (src, dst, nbytes, tag) array form."""

    @pytest.mark.parametrize("p", [2, 5, 16])
    @pytest.mark.parametrize("algorithm",
                             [n for n in list_algorithms("uniform")
                              if n != "vendor"])
    def test_uniform_matches_per_rank_schedule(self, algorithm, p):
        from repro.schedule import fabric_schedule
        n = 16
        per_rank = {r: [(m.dst, m.nbytes)
                        for m in uniform_schedule(algorithm, r, p, n)]
                    for r in range(p)}
        fabric = {r: [] for r in range(p)}
        for step in fabric_schedule(algorithm, "uniform", p,
                                    block_nbytes=n):
            for s, d, nb in zip(step.src, step.dst, step.nbytes):
                fabric[int(s)].append((int(d), int(nb)))
        assert fabric == per_rank

    @pytest.mark.parametrize("p", [2, 5, 16])
    @pytest.mark.parametrize("algorithm", SCHEDULED)
    def test_nonuniform_matches_per_rank_schedule(self, algorithm, p):
        from repro.schedule import fabric_schedule
        sizes = block_size_matrix(UniformBlocks(32), p, seed=5)
        per_rank = {r: [(m.dst, m.nbytes)
                        for m in nonuniform_schedule(algorithm, r, sizes)]
                    for r in range(p)}
        fabric = {r: [] for r in range(p)}
        for step in fabric_schedule(algorithm, "nonuniform", p,
                                    sizes=sizes):
            for s, d, nb in zip(step.src, step.dst, step.nbytes):
                fabric[int(s)].append((int(d), int(nb)))
        assert fabric == per_rank

    @pytest.mark.parametrize("p", [4, 16, 13])
    def test_volumes_match_tensor_run_accounting(self, p):
        """fabric_volume == the tensor backend's wire statistics (after
        adding back the internal allreduce traffic the schedule layer
        excludes by documented convention)."""
        import math

        from repro.schedule import fabric_schedule, fabric_volume
        from repro.simmpi import ExecutionConfig, TensorAlltoallv, THETA
        from repro.simmpi import run_spmd

        sizes = block_size_matrix(UniformBlocks(32), p, seed=5)
        cfg = ExecutionConfig(machine=THETA, backend="tensor",
                              wire="phantom", trace=False)
        ar = p * math.ceil(math.log2(p)) if p > 1 else 0
        for algorithm in list_algorithms("nonuniform"):
            res = run_spmd(TensorAlltoallv(algorithm, sizes), p,
                           config=cfg)
            vol = fabric_volume(fabric_schedule(algorithm, "nonuniform",
                                                p, sizes=sizes))
            msgs, nbytes = vol["messages"], vol["bytes"]
            if algorithm in ("padded_bruck", "padded_alltoall",
                             "two_phase_bruck", "locality_padded_bruck",
                             "locality_two_phase_bruck"):
                msgs += ar
                nbytes += 8 * ar
            assert (msgs, nbytes) == \
                (res.total_messages, res.total_bytes), algorithm

    def test_grouped_has_fabric_schedule(self):
        from repro.schedule import fabric_schedule
        p = 16
        sizes = block_size_matrix(UniformBlocks(32), p, seed=5)
        steps = fabric_schedule("grouped", "nonuniform", p, sizes=sizes,
                                group_size=4)
        labels = [s.label for s in steps]
        assert labels == ["gather_counts", "gather_data", "leader_counts",
                          "leader_blobs", "scatter_data"]
        # conservation: every rank's payload leaves it and reaches it
        total = sizes.sum() - np.diagonal(sizes).sum()
        gather = steps[1].total_bytes
        assert gather == sizes.sum(axis=1)[steps[1].src].sum()

    def test_validation(self):
        from repro.schedule import fabric_schedule
        with pytest.raises(KeyError):
            fabric_schedule("nope", "uniform", 8, block_nbytes=4)
        with pytest.raises(KeyError):
            fabric_schedule("basic_bruck", "diagonal", 8, block_nbytes=4)
        with pytest.raises(ValueError):
            fabric_schedule("basic_bruck", "uniform", 8)
        with pytest.raises(ValueError):
            fabric_schedule("sloav", "nonuniform", 8)


class TestRadixSchedules:
    """The r-ary digit schedule at every layer: per-rank, fabric, volume."""

    RADICES = (3, 4, 8)

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("p", [5, 13, 16])
    def test_uniform_matches_trace(self, p, radix):
        from repro.core.registry import radix_algorithms
        n = 16
        for algorithm in radix_algorithms("uniform"):
            def prog(comm):
                send = np.zeros(p * n, dtype=np.uint8)
                recv = np.zeros(p * n, dtype=np.uint8)
                alltoall(comm, send, recv, n, algorithm=algorithm,
                         radix=radix)
            res = run_spmd(prog, p)
            traces = traced_sends(res)
            for rank in range(p):
                expect = [(m.dst, m.nbytes)
                          for m in uniform_schedule(algorithm, rank, p, n,
                                                    radix=radix)]
                assert traces[rank] == expect, (algorithm, rank, radix)

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("p", [5, 13, 16])
    def test_nonuniform_matches_trace(self, p, radix):
        from repro.core.registry import radix_algorithms
        sizes = block_size_matrix(UniformBlocks(48), p, seed=3)
        for algorithm in radix_algorithms("nonuniform"):
            def prog(comm):
                args = build_vargs(comm.rank, sizes)
                alltoallv(comm, *args.as_tuple(), algorithm=algorithm,
                          radix=radix)
            res = run_spmd(prog, p)
            traces = traced_sends(res)
            for rank in range(p):
                expect = [(m.dst, m.nbytes)
                          for m in nonuniform_schedule(algorithm, rank,
                                                       sizes, radix=radix)]
                assert traces[rank] == expect, (algorithm, rank, radix)

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("p", [5, 16])
    def test_fabric_matches_per_rank(self, p, radix):
        from repro.core.registry import radix_algorithms
        from repro.schedule import fabric_schedule
        sizes = block_size_matrix(UniformBlocks(32), p, seed=5)
        for algorithm in radix_algorithms("nonuniform"):
            per_rank = {r: [(m.dst, m.nbytes)
                            for m in nonuniform_schedule(
                                algorithm, r, sizes, radix=radix)]
                        for r in range(p)}
            fabric = {r: [] for r in range(p)}
            for step in fabric_schedule(algorithm, "nonuniform", p,
                                        sizes=sizes, radix=radix):
                for s, d, nb in zip(step.src, step.dst, step.nbytes):
                    fabric[int(s)].append((int(d), int(nb)))
            assert fabric == per_rank, (algorithm, radix)

    @pytest.mark.parametrize("radix", [2, 4, 8])
    @pytest.mark.parametrize("p", [4, 13, 16])
    def test_volumes_match_tensor_accounting(self, p, radix):
        # The acceptance bar of the radix generalization: the analytic
        # schedule's volumes equal the tensor backend's wire statistics
        # at every radix (allreduce control traffic added back, as in
        # TestFabricSchedules above).
        import math

        from repro.core.registry import radix_algorithms
        from repro.schedule import fabric_schedule, fabric_volume
        from repro.simmpi import (ExecutionConfig, TensorAlltoall,
                                  TensorAlltoallv, THETA)

        sizes = block_size_matrix(UniformBlocks(32), p, seed=5)
        cfg = ExecutionConfig(machine=THETA, backend="tensor",
                              wire="phantom", trace=False)
        ar = p * math.ceil(math.log2(p)) if p > 1 else 0
        for algorithm in radix_algorithms("nonuniform"):
            res = run_spmd(TensorAlltoallv(algorithm, sizes, radix=radix),
                           p, config=cfg)
            vol = fabric_volume(fabric_schedule(
                algorithm, "nonuniform", p, sizes=sizes, radix=radix))
            assert (vol["messages"] + ar, vol["bytes"] + 8 * ar) == \
                (res.total_messages, res.total_bytes), (algorithm, radix)
        for algorithm in radix_algorithms("uniform"):
            res = run_spmd(TensorAlltoall(algorithm, 16, radix=radix),
                           p, config=cfg)
            vol = fabric_volume(fabric_schedule(
                algorithm, "uniform", p, block_nbytes=16, radix=radix))
            assert (vol["messages"], vol["bytes"]) == \
                (res.total_messages, res.total_bytes), (algorithm, radix)

    @pytest.mark.parametrize("p", [5, 16])
    def test_radix_two_identical_to_default(self, p):
        from repro.core.registry import radix_algorithms
        sizes = block_size_matrix(UniformBlocks(32), p, seed=5)
        for algorithm in radix_algorithms("nonuniform"):
            assert nonuniform_schedule(algorithm, 1, sizes, radix=2) == \
                nonuniform_schedule(algorithm, 1, sizes)
        for algorithm in radix_algorithms("uniform"):
            assert uniform_schedule(algorithm, 1, p, 16, radix=2) == \
                uniform_schedule(algorithm, 1, p, 16)

    def test_higher_radix_reduces_volume(self):
        # The whole point of the dial: fewer forwarding hops per block.
        p = 64
        sizes = np.full((p, p), 100, dtype=np.int64)
        vols = [sum(schedule_volume(nonuniform_schedule(
            "padded_bruck", r, sizes, radix=radix))["bytes"]
            for r in range(p)) for radix in (2, 4, 8)]
        assert vols[0] > vols[1] > vols[2]

    def test_incapable_algorithm_rejected(self):
        from repro.schedule import fabric_schedule
        sizes = np.ones((4, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="radix"):
            uniform_schedule("basic_bruck", 0, 8, 8, radix=4)
        with pytest.raises(ValueError, match="radix"):
            nonuniform_schedule("sloav", 0, sizes, radix=4)
        with pytest.raises(ValueError, match="radix"):
            fabric_schedule("spread_out", "uniform", 8, block_nbytes=4,
                            radix=4)
