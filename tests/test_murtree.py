"""Unit tests for the two-level μR-tree and reachability."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import repro
from repro.core.mudbscan import run_mu_dbscan_state
from repro.core.params import DBSCANParams
from repro.data.registry import dataset_names, load_dataset
from repro.data.synthetic import blobs_with_noise
from repro.geometry.distance import neighbors_within, sq_dist
from repro.index import grid
from repro.index.rtree import RTree
from repro.instrumentation.counters import Counters
from repro.microcluster.builder import build_micro_cluster_arrays
from repro.microcluster.microcluster import MicroCluster
from repro.microcluster.murtree import DENSE_MIN_CANDIDATES, MuRTree
from repro.microcluster.reachability import compute_reachable
from repro.serving.model import FittedModel, fit_model
from repro.serving.predict import predict_model


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
        _, center_rows, _, _ = build_micro_cluster_arrays(pts, eps)
        centers = pts[center_rows]
        assert len(centers) >= 3000
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            reach_offsets, _ = compute_reachable(centers, eps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every MC has its reach list (each includes the MC itself)
        assert reach_offsets.shape == (len(centers) + 1,)
        assert np.all(np.diff(reach_offsets) >= 1)
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"


    @pytest.mark.parametrize("case", ["fof-14d", "normal-16d"])
    def test_chunked_join_peak_and_parity(self, case, monkeypatch):
        # MCs in nearly as many cells, nearly all adjacent: joined in one
        # chunk, the cell pairs grow with m² (136.9 and 206.5 MiB here)
        if case == "fof-14d":
            pts, spec = load_dataset("FOF28M14D", scale=4)
            eps = spec.eps
        else:
            pts, eps = np.random.default_rng(0).normal(0.0, 0.6, (2000, 16)), 0.5
        _, center_rows, _, _ = build_micro_cluster_arrays(pts, eps)
        centers = pts[center_rows]
        chunked = Counters()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = compute_reachable(centers, eps, chunked)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"
        monkeypatch.setattr(grid, "_JOIN_CELL_PAIRS", 2**62)  # one chunk
        whole = Counters()
        want = compute_reachable(centers, eps, whole)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert chunked.dist_calcs == whole.dist_calcs
        assert len(centers) > 1900 and want[1].size > len(centers)


class TestReachBlockGather:
    """Reach blocks are gathered from the member arrays through the reach
    CSR, in its order: ascending reachable MC id, then each MC's members
    in member order.  Neighbour lists and border choices follow that
    order, so every reader must see the same sequence."""

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    @pytest.mark.parametrize("name", dataset_names())
    def test_block_order_is_the_reach_csr_order(self, name, metric):
        pts, spec = load_dataset(name, scale=0.06, seed=3)
        tree = MuRTree(pts, spec.eps, metric=metric)
        tree.compute_reachability()
        m = tree.n_micro_clusters
        blocks = [
            np.concatenate([tree.member_rows(w) for w in tree.reach_ids(k)])
            for k in range(m)
        ]
        for k in range(m):
            np.testing.assert_array_equal(tree.reach_block(k), blocks[k])
        np.testing.assert_array_equal(np.diff(tree.block_offsets), [b.size for b in blocks])
        # the one-pass gather, in any MC order and with repeats
        ids = np.concatenate([np.arange(m)[::-1], np.arange(min(m, 3))])
        offsets, at = tree.block_positions(ids)
        for i, k in enumerate(ids.tolist()):
            np.testing.assert_array_equal(
                tree.member_flat[at[offsets[i] : offsets[i + 1]]], blocks[k]
            )
        np.testing.assert_array_equal(tree.member_points[at], pts[tree.member_flat[at]])
        # a query keeps the block's order among its neighbours
        threshold = tree.metric.threshold(tree.eps)
        for row in range(0, len(tree), max(1, len(tree) // 25)):
            block = blocks[int(tree.point_mc[row])]
            raw = tree.metric.raw_to_point(pts[block], pts[row])
            np.testing.assert_array_equal(tree.query_ball(row)[0], block[raw < threshold])
            res = tree.query_ball_block(int(tree.point_mc[row]), np.array([row]))
            np.testing.assert_array_equal(res.nbrs(0), block[raw < threshold])

    def test_index_retains_no_block(self):
        # blocks of up to 1,740 candidates, 203 of them dense: the index
        # retained 6.18 MiB here while it stored the blocks (their rows,
        # plus the dense blocks' coordinates), and 0.44 MiB gathering them
        pts = blobs_with_noise(6000, 3, 4, noise_fraction=0.2, seed=1)
        tracemalloc.start()
        try:
            tree = MuRTree(pts, 0.08)
            tree.compute_reachability()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(np.diff(tree.block_offsets) >= DENSE_MIN_CANDIDATES) > 100
        assert retained < 2**20, f"{retained / 2**20:.2f} MiB"


class TestFlatStore:
    """The fit index holds the MC structure as the served model's
    arrays; per-MC objects are an inspection view."""

    def test_store_arrays_are_read_only_and_shared_with_the_model(self, small_blobs):
        state, _ = run_mu_dbscan_state(small_blobs, DBSCANParams(eps=0.08, min_pts=6))
        tree = state.murtree
        names = (
            "point_mc", "center_rows", "member_offsets", "member_flat",
            "member_points", "mbr_low", "mbr_high", "ic_offsets", "ic_flat",
            "reach_offsets", "reach_flat", "block_offsets",
        )
        for name in names:
            assert not getattr(tree, name).flags.writeable, name
        model = FittedModel.from_state(state)
        for name in ("point_mc", "center_rows", "member_offsets", "member_flat",
                     "reach_offsets", "reach_flat"):
            assert getattr(model, name) is getattr(tree, name), name

    def test_view_matches_the_arrays(self, murtree):
        m = murtree.n_micro_clusters
        assert [mc.mc_id for mc in murtree.mcs] == list(range(m))
        for k, mc in enumerate(murtree.mcs):
            assert mc.frozen and mc.center_row == murtree.center_rows[k]
            np.testing.assert_array_equal(mc.member_rows, murtree.member_rows(k))
            np.testing.assert_array_equal(mc.reach_ids, murtree.reach_ids(k))
            np.testing.assert_array_equal(mc.reach_rows, murtree.reach_block(k))
            np.testing.assert_array_equal(
                mc.ic_rows,
                murtree.ic_flat[murtree.ic_offsets[k] : murtree.ic_offsets[k + 1]],
            )

    @pytest.mark.parametrize("min_pts", [1, 3, 6, 20])
    def test_kind_counts_match_the_per_mc_classification(self, murtree, min_pts):
        counts = {"DMC": 0, "CMC": 0, "SMC": 0}
        for mc in murtree.mcs:
            counts[mc.kind(min_pts).name] += 1
        assert murtree.kind_counts(min_pts) == counts

    def test_view_is_dropped_when_the_reach_state_changes(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08)
        before = tree.mcs
        assert all(mc.reach_ids is None for mc in before)
        tree.compute_reachability()
        after = tree.mcs
        assert after is not before and after is tree.mcs
        assert all(mc.reach_ids is not None and mc.reach_rows is not None for mc in after)
        tree.compute_reachability()  # idempotent: the view stays
        assert tree.mcs is after

    def test_view_does_not_keep_its_store_alive(self, small_blobs):
        # the MCs reach their store through a weak proxy, so reference
        # counting frees a store whose view was read
        tree = MuRTree(small_blobs, eps=0.08)
        tree.compute_reachability()
        assert all(mc.reach_rows is not None for mc in tree.mcs)
        store = weakref.ref(tree)
        gc.disable()
        try:
            del tree
            assert store() is None
        finally:
            gc.enable()

    def test_empty_and_single_point(self):
        empty = MuRTree(np.empty((0, 3)), eps=0.5)
        empty.compute_reachability()
        assert empty.n_micro_clusters == 0 and empty.mcs == []
        assert empty.mbr_low.shape == (0, 3) and empty.reach_offsets.tolist() == [0]
        one = MuRTree(np.array([[1.0, 2.0]]), eps=0.5)
        one.compute_reachability()
        assert one.reach_flat.tolist() == [0] and one.ic_flat.tolist() == [0]
        assert one.kind_counts(1) == {"DMC": 1, "CMC": 0, "SMC": 0}


class TestNoPerMCObjectsInProduction:
    """No production path constructs a ``MicroCluster`` or an ``RTree``;
    the object view is built once, on first read."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        counts = {MicroCluster: 0, RTree: 0}
        for cls in counts:
            init = cls.__init__

            def counting(self, *args, _init=init, _cls=cls, **kwargs):
                counts[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @pytest.mark.parametrize("engine", ["exact", "sampled", "summary"])
    def test_fit(self, small_blobs, constructed, engine):
        repro.fit(small_blobs, eps=0.08, min_pts=6, engine=engine)
        assert constructed == {MicroCluster: 0, RTree: 0}

    def test_model_round_trip_and_predict(self, small_blobs, constructed):
        model = fit_model(small_blobs, 0.08, 6)
        loaded = FittedModel.from_bytes(model.to_bytes())
        predict_model(loaded, small_blobs[::5] + 0.01)
        assert loaded.mc_kind_counts() == model.mc_kind_counts()
        assert constructed == {MicroCluster: 0, RTree: 0}

    def test_distributed(self, small_blobs, constructed):
        repro.fit_distributed(small_blobs, 0.08, 6, n_ranks=2, backend="thread")
        assert constructed == {MicroCluster: 0, RTree: 0}

    def test_streaming_seed_and_insert(self, small_blobs, constructed):
        stream = repro.stream(eps=0.08, min_pts=6)
        stream.partial_fit(small_blobs[:200])
        stream.partial_fit(small_blobs[200:])
        stream.delete(stream.ids_[::4])
        assert stream.compact(force=True) > 0
        predict_model(stream.to_fitted_model(), small_blobs[::7] + 0.01)
        assert constructed == {MicroCluster: 0, RTree: 0}

    def test_view_is_built_once(self, small_blobs, constructed):
        model = fit_model(small_blobs, 0.08, 6)
        first = model.murtree.mcs
        assert constructed[MicroCluster] == model.n_micro_clusters
        assert model.murtree.mcs is first
        assert constructed[MicroCluster] == model.n_micro_clusters
