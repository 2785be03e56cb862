"""Property-based tests (hypothesis) on the core invariants.

These are the repository's strongest correctness evidence: for *arbitrary*
point sets and parameters,

* μDBSCAN must equal brute-force DBSCAN (Theorem 1),
* every spatial index must answer ε-queries identically,
* the union-find must behave like a reference partition model,
* micro-cluster construction must produce a valid partition.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import brute_dbscan, check_exact, mu_dbscan
from repro.geometry.distance import neighbors_within
from repro.geometry.mbr import mbr_area, mbr_of_points, mbr_union
from repro.index.grid import UniformGrid
from repro.index.kdtree import KDTree
from repro.index.rtree import PointRTree
from repro.microcluster.builder import build_micro_clusters
from repro.unionfind import unionfind as unionfind_module
from repro.unionfind.unionfind import UnionFind

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _points(min_n=1, max_n=80, max_d=3):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.integers(1, max_d).flatmap(
            lambda d: arrays(
                np.float64,
                (n, d),
                elements=st.floats(-10, 10, allow_nan=False, width=32),
            )
        )
    )


class TestExactnessProperty:
    @_SETTINGS
    @given(
        pts=_points(),
        eps=st.floats(0.05, 5.0, allow_nan=False),
        min_pts=st.integers(1, 8),
    )
    def test_mu_dbscan_always_exact(self, pts, eps, min_pts):
        ref = brute_dbscan(pts, eps, min_pts)
        res = mu_dbscan(pts, eps, min_pts)
        report = check_exact(res, ref, points=pts)
        assert report.ok, str(report)

    @_SETTINGS
    @given(
        pts=_points(min_n=2, max_n=60),
        eps=st.floats(0.05, 5.0, allow_nan=False),
        min_pts=st.integers(1, 6),
    )
    def test_point_order_does_not_change_exactness_invariants(
        self, pts, eps, min_pts
    ):
        """The paper: 'change in ordering of points doesn't change' the
        core set, core partition, or cluster count."""
        res_a = mu_dbscan(pts, eps, min_pts)
        perm = np.random.default_rng(0).permutation(pts.shape[0])
        res_b = mu_dbscan(pts[perm], eps, min_pts)
        # map permuted results back to original indexing
        core_b = np.empty_like(res_b.core_mask)
        core_b[perm] = res_b.core_mask
        assert np.array_equal(res_a.core_mask, core_b)
        noise_b = np.empty_like(res_b.noise_mask)
        noise_b[perm] = res_b.noise_mask
        assert np.array_equal(res_a.noise_mask, noise_b)
        assert res_a.n_clusters == res_b.n_clusters


class TestIndexEquivalenceProperty:
    @_SETTINGS
    @given(
        pts=_points(min_n=1, max_n=100),
        eps=st.floats(0.01, 8.0, allow_nan=False),
    )
    def test_all_indexes_agree_with_brute(self, pts, eps):
        q = pts[0]
        expected = np.sort(neighbors_within(pts, q, eps))
        rtree = PointRTree(pts)
        np.testing.assert_array_equal(np.sort(rtree.query_ball(q, eps)), expected)
        kdtree = KDTree(pts, leaf_size=8)
        np.testing.assert_array_equal(np.sort(kdtree.query_ball(q, eps)), expected)
        grid = UniformGrid(pts, cell_width=eps)
        np.testing.assert_array_equal(np.sort(grid.query_ball(q, eps)), expected)


class TestMicroClusterProperty:
    @_SETTINGS
    @given(pts=_points(min_n=1, max_n=100), eps=st.floats(0.05, 5.0))
    def test_partition_invariants(self, pts, eps):
        mcs, _, point_mc = build_micro_clusters(pts, eps)
        # every point in exactly one MC
        assert (point_mc >= 0).all()
        assert sum(len(mc) for mc in mcs) == pts.shape[0]
        eps_sq = eps * eps
        for mc in mcs:
            # membership radius
            diffs = mc.member_points - mc.center
            assert (np.einsum("ij,ij->i", diffs, diffs) < eps_sq).all()
            # IC is a subset of members
            assert set(mc.ic_rows.tolist()) <= set(mc.member_rows.tolist())

    @_SETTINGS
    @given(pts=_points(min_n=2, max_n=100), eps=st.floats(0.05, 5.0))
    def test_centers_pairwise_separated(self, pts, eps):
        mcs, _, _ = build_micro_clusters(pts, eps)
        centers = np.stack([mc.center for mc in mcs])
        for i in range(len(mcs)):
            d = centers - centers[i]
            sq = np.einsum("ij,ij->i", d, d)
            sq[i] = np.inf
            assert (sq >= eps * eps).all()


class TestUnionFindModel:
    @_SETTINGS
    @given(
        n=st.integers(1, 50),
        ops=st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=100),
    )
    def test_against_naive_partition_model(self, n, ops):
        uf = UnionFind(n)
        model = {i: {i} for i in range(n)}

        def model_find(x):
            for rep, members in model.items():
                if x in members:
                    return rep
            raise AssertionError("unreachable")

        for a, b in ops:
            a, b = a % n, b % n
            uf.union(a, b)
            ra, rb = model_find(a), model_find(b)
            if ra != rb:
                model[ra] |= model.pop(rb)
        assert uf.n_sets == len(model)
        for a in range(n):
            for b in range(n):
                assert uf.connected(a, b) == (model_find(a) == model_find(b))


class TestUnionEdges:
    """``union_edges`` resolves a batch in one array pass or, when it is
    small, edge by edge; either must leave the state a loop of
    ``union`` over the same pairs leaves."""

    @_SETTINGS
    @given(
        n=st.integers(1, 40),
        grow=st.integers(0, 10),
        prior=st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=40),
        edges=st.lists(st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=80),
        self_loops=st.booleans(),
        repeat=st.booleans(),
    )
    # earlier unions left the chain 3 -> 2 -> 1 -> 0: pointer jumping
    # needs more than one round to find 3's root
    @example(
        n=5, grow=1, prior=[(2, 3), (1, 2), (0, 1)], edges=[(3, 5)], self_loops=False, repeat=False
    )
    def test_matches_a_loop_of_unions(self, n, grow, prior, edges, self_loops, repeat):
        total = n + grow
        pairs = [(a % total, b % total) for a, b in edges]
        if self_loops:
            pairs += [(a, a) for a, _ in pairs[:5]]
        if repeat:
            pairs += pairs[: len(pairs) // 2] + [(b, a) for a, b in pairs[:3]]
        src = np.asarray([a for a, _ in pairs], dtype=np.int64)
        dst = np.asarray([b for _, b in pairs], dtype=np.int64)
        # the array pass, then the edge-by-edge loop, each forced
        for limit in (-(2**62), 2**62):
            batched, looped = UnionFind(n), UnionFind(n)
            for uf in (batched, looped):
                for a, b in prior:
                    uf.union(a % n, b % n)
                ids = uf.extend(grow)
                np.testing.assert_array_equal(ids, np.arange(n, total))
            with mock.patch.object(unionfind_module, "_LOOP_EDGES", limit):
                effective = batched.union_edges(src, dst)
            before = looped.counters.unions
            for a, b in pairs:
                looped.union(a, b)
            assert effective == looped.counters.unions - before
            roots = batched.roots()
            np.testing.assert_array_equal(roots, looped.roots())
            assert batched.n_sets == looped.n_sets == np.unique(roots).size
            assert batched.counters.unions == looped.counters.unions
            # every root is the smallest element of its set
            assert (roots <= np.arange(total)).all()
            np.testing.assert_array_equal(roots[roots], roots)

    def test_rejects_unequal_lengths(self):
        uf = UnionFind(4)
        with pytest.raises(ValueError, match="equal lengths"):
            uf.union_edges(np.array([0, 1]), np.array([2]))
        assert uf.n_sets == 4


class TestMbrProperties:
    @_SETTINGS
    @given(pts=_points(min_n=1, max_n=40))
    def test_union_is_monotone_and_commutative(self, pts):
        half = max(1, pts.shape[0] // 2)
        low_a, high_a = mbr_of_points(pts[:half])
        low_b, high_b = mbr_of_points(pts[half:]) if pts[half:].size else mbr_of_points(pts[:1])
        u1 = mbr_union(low_a, high_a, low_b, high_b)
        u2 = mbr_union(low_b, high_b, low_a, high_a)
        np.testing.assert_array_equal(u1[0], u2[0])
        np.testing.assert_array_equal(u1[1], u2[1])
        assert mbr_area(*u1) >= max(mbr_area(low_a, high_a), mbr_area(low_b, high_b))

    @_SETTINGS
    @given(pts=_points(min_n=1, max_n=40))
    def test_mbr_contains_all_points(self, pts):
        low, high = mbr_of_points(pts)
        assert (pts >= low).all() and (pts <= high).all()
