"""Tests for the ε-halo exchange."""

import numpy as np
import pytest

from repro.distributed.halo import exchange_halo
from repro.distributed.partition import kd_partition
from repro.distributed.backends.thread import run_mpi
from repro.geometry.distance import sq_dists_to_point


def _partition_and_halo(points: np.ndarray, p: int, eps: float):
    n = points.shape[0]
    blocks = np.array_split(np.arange(n, dtype=np.int64), p)

    def main(comm):
        gids = blocks[comm.rank]
        part = kd_partition(comm, points[gids], gids)
        halo = exchange_halo(
            comm, part.points, part.gids, part.all_box_lows, part.all_box_highs, eps
        )
        return part, halo

    return run_mpi(p, main)


class TestHaloExchange:
    def test_halo_completes_neighborhoods(self, rng):
        """For every owned point, its full ε-ball must lie in owned+halo —
        the invariant the whole distributed design rests on."""
        pts = rng.random((400, 2))
        eps = 0.08
        results = _partition_and_halo(pts, 4, eps)
        for part, halo in results:
            local_gids = set(part.gids.tolist()) | set(halo.gids.tolist())
            for row, gid in enumerate(part.gids):
                sq = sq_dists_to_point(pts, pts[gid])
                truth = set(np.flatnonzero(sq < eps * eps).tolist())
                assert truth <= local_gids

    def test_halo_points_near_box(self, rng):
        pts = rng.random((300, 3))
        eps = 0.1
        results = _partition_and_halo(pts, 4, eps)
        for part, halo in results:
            for hp in halo.points:
                clamped = np.clip(hp, part.box_low, part.box_high)
                assert float(np.sum((hp - clamped) ** 2)) < eps * eps

    def test_halo_never_contains_owned(self, rng):
        pts = rng.random((300, 2))
        results = _partition_and_halo(pts, 4, 0.1)
        for part, halo in results:
            assert not (set(part.gids.tolist()) & set(halo.gids.tolist()))

    def test_owners_recorded(self, rng):
        pts = rng.random((200, 2))
        results = _partition_and_halo(pts, 2, 0.1)
        owned_by = {}
        for r, (part, _) in enumerate(results):
            for gid in part.gids:
                owned_by[int(gid)] = r
        for r, (_, halo) in enumerate(results):
            for gid, owner in zip(halo.gids, halo.owners):
                assert owned_by[int(gid)] == int(owner)
                assert int(owner) != r

    def test_single_rank_empty_halo(self, rng):
        pts = rng.random((50, 2))
        results = _partition_and_halo(pts, 1, 0.1)
        _, halo = results[0]
        assert halo.points.shape[0] == 0

    def test_invalid_eps(self, rng):
        def main(comm):
            return exchange_halo(
                comm, rng.random((5, 2)), np.arange(5),
                np.zeros((1, 2)), np.ones((1, 2)), eps=0.0,
            )

        with pytest.raises(RuntimeError, match="eps"):
            run_mpi(1, main)
