"""Unit tests for the two-level μR-tree and reachability."""

import tracemalloc

import numpy as np
import pytest

from repro.geometry.distance import neighbors_within, sq_dist
from repro.instrumentation.counters import Counters
from repro.microcluster.builder import build_micro_clusters
from repro.microcluster.murtree import MuRTree
from repro.microcluster.reachability import compute_reachable


@pytest.fixture
def murtree(small_blobs) -> MuRTree:
    tree = MuRTree(small_blobs, eps=0.08)
    tree.compute_reachability()
    return tree


class TestMuRTree:
    def test_query_ball_exact_flat(self, small_blobs, murtree):
        for row in range(0, small_blobs.shape[0], 17):
            rows, sq = murtree.query_ball(row)
            expected = neighbors_within(small_blobs, small_blobs[row], 0.08)
            np.testing.assert_array_equal(np.sort(rows), np.sort(expected))

    def test_query_ball_exact_rtree_mode(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08, aux_index="rtree")
        tree.compute_reachability()
        for row in range(0, small_blobs.shape[0], 23):
            rows, _ = tree.query_ball(row)
            expected = neighbors_within(small_blobs, small_blobs[row], 0.08)
            np.testing.assert_array_equal(np.sort(rows), np.sort(expected))

    def test_modes_agree(self, small_blobs):
        flat = MuRTree(small_blobs, eps=0.08, aux_index="flat")
        flat.compute_reachability()
        rtree = MuRTree(small_blobs, eps=0.08, aux_index="rtree")
        rtree.compute_reachability()
        cached = MuRTree(small_blobs, eps=0.08, aux_index="cached")
        cached.compute_reachability()
        for row in range(0, small_blobs.shape[0], 11):
            a, _ = flat.query_ball(row)
            b, _ = rtree.query_ball(row)
            c, _ = cached.query_ball(row)
            np.testing.assert_array_equal(np.sort(a), np.sort(b))
            np.testing.assert_array_equal(np.sort(a), np.sort(c))

    def test_cached_blocks_materialised(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08, aux_index="cached")
        tree.compute_reachability()
        for mc in tree.mcs:
            assert mc.reach_rows is not None and mc.reach_points is not None
            assert mc.reach_points.shape == (mc.reach_rows.shape[0], 2)
            # the block is exactly the union of reachable members
            expected = np.sort(
                np.concatenate([tree.mcs[int(w)].member_rows for w in mc.reach_ids])
            )
            np.testing.assert_array_equal(np.sort(mc.reach_rows), expected)

    def test_returned_sq_dists_correct(self, small_blobs, murtree):
        rows, sq = murtree.query_ball(0)
        for r, s in zip(rows, sq):
            assert s == pytest.approx(sq_dist(small_blobs[0], small_blobs[int(r)]))

    def test_query_without_reachability_raises(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08)
        with pytest.raises(RuntimeError, match="compute_reachability"):
            tree.query_ball(0)

    def test_no_filtration_still_exact(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08, filtration=False)
        tree.compute_reachability()
        rows, _ = tree.query_ball(5)
        expected = neighbors_within(small_blobs, small_blobs[5], 0.08)
        np.testing.assert_array_equal(np.sort(rows), np.sort(expected))

    def test_filtration_prunes_work(self, small_blobs):
        # filtration is a flat/rtree-mode concept; cached mode trades it
        # for one precomputed block per MC
        c_filt = Counters()
        t1 = MuRTree(
            small_blobs, eps=0.08, aux_index="flat", filtration=True, counters=c_filt
        )
        t1.compute_reachability()
        c_none = Counters()
        t2 = MuRTree(
            small_blobs, eps=0.08, aux_index="flat", filtration=False, counters=c_none
        )
        t2.compute_reachability()
        d0_filt, d0_none = c_filt.dist_calcs, c_none.dist_calcs
        for row in range(small_blobs.shape[0]):
            t1.query_ball(row)
            t2.query_ball(row)
        assert (c_filt.dist_calcs - d0_filt) <= (c_none.dist_calcs - d0_none)
        assert c_filt.extra.get("filtration_prunes", 0) > 0

    def test_custom_radius_query(self, small_blobs, murtree):
        # any radius up to eps is exact (reachability covers eps)
        rows, _ = murtree.query_ball(3, radius=0.04)
        expected = neighbors_within(small_blobs, small_blobs[3], 0.04)
        np.testing.assert_array_equal(np.sort(rows), np.sort(expected))

    def test_avg_mc_size(self, murtree, small_blobs):
        assert murtree.avg_mc_size == pytest.approx(
            small_blobs.shape[0] / murtree.n_micro_clusters
        )

    def test_postprocessing_candidates_superset_of_ball(self, small_blobs, murtree):
        for row in range(0, small_blobs.shape[0], 31):
            cands = set(murtree.candidates_for_postprocessing(row).tolist())
            ball = set(neighbors_within(small_blobs, small_blobs[row], 0.08).tolist())
            assert ball <= cands

    def test_invalid_args(self, small_blobs):
        with pytest.raises(ValueError, match="aux_index"):
            MuRTree(small_blobs, eps=0.08, aux_index="hash")
        with pytest.raises(ValueError, match="eps"):
            MuRTree(small_blobs, eps=-1.0)
        tree = MuRTree(small_blobs, eps=0.08)
        tree.compute_reachability()
        with pytest.raises(ValueError, match="radius"):
            tree.query_ball(0, radius=0.0)


class TestReachability:
    def test_reach_lists_symmetric(self, murtree):
        for mc in murtree.mcs:
            for w in mc.reach_ids:
                assert mc.mc_id in murtree.mcs[int(w)].reach_ids

    def test_reach_includes_self(self, murtree):
        for mc in murtree.mcs:
            assert mc.mc_id in mc.reach_ids

    def test_reach_is_exactly_3eps(self, murtree):
        eps = murtree.eps
        centers = np.stack([mc.center for mc in murtree.mcs])
        for mc in murtree.mcs:
            reach = set(mc.reach_ids.tolist())
            for other in murtree.mcs:
                d_sq = sq_dist(mc.center, other.center)
                if d_sq <= (3 * eps) ** 2:
                    assert other.mc_id in reach
                else:
                    assert other.mc_id not in reach

    def test_idempotent(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08)
        tree.compute_reachability()
        first = [mc.reach_ids.copy() for mc in tree.mcs]
        tree.compute_reachability()
        for a, mc in zip(first, tree.mcs):
            np.testing.assert_array_equal(a, mc.reach_ids)


class TestReachabilityMemory:
    """Algorithm 5's grid join keeps its temporaries within fixed element
    budgets.  The dense m × m sweep it replaced peaked at 630 MiB on the
    lattice, and two of its 3,000 × 3,000 × 16 float64 temporaries alone
    take 2.1 GiB on the 16-D input."""

    @pytest.mark.parametrize("case", ["lattice-3d", "scattered-16d"])
    def test_peak_under_32_mib(self, case):
        if case == "lattice-3d":
            # 15³ centers at 1.5ε pitch: every cell holds ~20 MCs
            axis = np.arange(15) * 1.5
            pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
            pts, eps = pts.reshape(-1, 3), 1.0
        else:
            # stencil 3**16 >> occupied cells: the occupied-set compare
            pts, eps = np.random.default_rng(3).random((3000, 16)) * 10.0, 0.5
        mcs, _, _ = build_micro_clusters(pts, eps)
        assert len(mcs) >= 3000
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            compute_reachable(mcs, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(mc.reach_ids is not None for mc in mcs)
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"
