"""Tests for sampling-based kd partitioning."""

import numpy as np
import pytest

from repro.distributed.partition import kd_partition
from repro.distributed.backends.thread import run_mpi


def _partition(points: np.ndarray, p: int, sample_size: int = 256):
    n = points.shape[0]
    blocks = np.array_split(np.arange(n, dtype=np.int64), p)

    def main(comm):
        gids = blocks[comm.rank]
        return kd_partition(comm, points[gids], gids, sample_size=sample_size)

    return run_mpi(p, main)


class TestKdPartition:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_points_conserved(self, rng, p):
        pts = rng.random((500, 3))
        parts = _partition(pts, p)
        all_gids = np.concatenate([pr.gids for pr in parts])
        assert np.sort(all_gids).tolist() == list(range(500))
        for pr in parts:
            np.testing.assert_array_equal(pr.points, pts[pr.gids])

    def test_points_inside_their_box(self, rng):
        pts = rng.random((400, 2))
        parts = _partition(pts, 4)
        for pr in parts:
            assert (pr.points >= pr.box_low - 1e-12).all()
            assert (pr.points < pr.box_high + 1e-12).all()

    def test_boxes_disjoint(self, rng):
        pts = rng.random((300, 2))
        parts = _partition(pts, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                # two boxes overlap iff they overlap in every axis; kd
                # splits guarantee separation along some axis
                low_i, high_i = parts[i].box_low, parts[i].box_high
                low_j, high_j = parts[j].box_low, parts[j].box_high
                overlap = np.all((low_i < high_j) & (low_j < high_i))
                assert not overlap

    def test_all_boxes_gathered_consistently(self, rng):
        pts = rng.random((200, 2))
        parts = _partition(pts, 2)
        for pr in parts:
            np.testing.assert_array_equal(pr.all_box_lows[0], parts[0].box_low)
            np.testing.assert_array_equal(pr.all_box_highs[1], parts[1].box_high)

    def test_reasonable_balance(self, rng):
        pts = rng.random((1024, 3))
        parts = _partition(pts, 8, sample_size=512)
        sizes = np.array([pr.points.shape[0] for pr in parts])
        # sampled medians: allow generous imbalance but not degenerate
        assert sizes.min() > 0.3 * sizes.mean()
        assert sizes.max() < 3.0 * sizes.mean()

    def test_clustered_data_balance(self):
        """Skewed data is the reason the median (not midpoint) is used."""
        rng = np.random.default_rng(0)
        pts = np.vstack(
            [rng.normal(0, 0.01, (900, 2)), rng.uniform(0, 10, (124, 2))]
        )
        parts = _partition(pts, 4, sample_size=400)
        sizes = np.array([pr.points.shape[0] for pr in parts])
        assert sizes.max() < 0.6 * pts.shape[0]

    def test_non_power_of_two_rejected(self, rng):
        pts = rng.random((50, 2))
        with pytest.raises(RuntimeError, match="power-of-two"):
            _partition(pts, 3)

    def test_single_rank_identity(self, rng):
        pts = rng.random((30, 2))
        parts = _partition(pts, 1)
        assert parts[0].points.shape == (30, 2)
        assert np.isinf(parts[0].box_low).all()
