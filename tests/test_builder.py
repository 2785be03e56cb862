"""Unit tests for micro-cluster construction (Algorithm 3)."""

import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.registry import dataset_names, load_dataset
from repro.geometry.distance import sq_dists_to_point
from repro.geometry.metrics import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.instrumentation.counters import Counters
from repro.index import grid
from repro.microcluster import builder, reachability
from repro.microcluster.builder import build_micro_cluster_arrays, build_micro_clusters
from repro.microcluster.murtree import MuRTree
from repro.microcluster.reachability import compute_reachable
from repro.validation.reference import build_micro_clusters_scan, compute_reachable_probe


class TestBuildMicroClusters:
    def test_every_point_in_exactly_one_mc(self, small_blobs):
        mcs, tree, point_mc = build_micro_clusters(small_blobs, eps=0.08)
        assert (point_mc >= 0).all()
        total = sum(len(mc) for mc in mcs)
        assert total == small_blobs.shape[0]
        for mc in mcs:
            for row in mc.member_rows:
                assert point_mc[row] == mc.mc_id

    def test_members_strictly_within_eps_of_center(self, small_blobs):
        eps = 0.08
        mcs, _, _ = build_micro_clusters(small_blobs, eps=eps)
        for mc in mcs:
            sq = sq_dists_to_point(mc.member_points, mc.center)
            assert (sq < eps * eps).all()

    def test_centers_never_within_eps_of_each_other(self, small_blobs):
        """Two MC centers closer than ε would mean the later one should
        have joined the earlier one."""
        eps = 0.08
        mcs, _, _ = build_micro_clusters(small_blobs, eps=eps)
        centers = np.stack([mc.center for mc in mcs])
        for i in range(len(mcs)):
            sq = sq_dists_to_point(centers, centers[i])
            sq[i] = np.inf
            assert (sq >= eps * eps).all()

    def test_2eps_rule_reduces_mc_count(self, medium_blobs_3d):
        eps = 0.1
        with_defer, _, _ = build_micro_clusters(medium_blobs_3d, eps, defer_2eps=True)
        without, _, _ = build_micro_clusters(medium_blobs_3d, eps, defer_2eps=False)
        assert len(with_defer) <= len(without)

    def test_deferral_counted(self, medium_blobs_3d):
        counters = Counters()
        build_micro_clusters(medium_blobs_3d, 0.1, counters=counters)
        assert counters.deferred_points > 0
        assert counters.micro_clusters > 0

    def test_tree_payloads_match_mc_ids(self, small_blobs):
        mcs, tree, _ = build_micro_clusters(small_blobs, eps=0.1)
        assert sorted(tree.iter_payloads()) == [mc.mc_id for mc in mcs]

    def test_all_mcs_frozen(self, small_blobs):
        mcs, _, _ = build_micro_clusters(small_blobs, eps=0.1)
        assert all(mc.frozen for mc in mcs)

    def test_single_point(self):
        mcs, tree, point_mc = build_micro_clusters(np.array([[1.0, 2.0]]), eps=0.5)
        assert len(mcs) == 1
        assert point_mc[0] == 0
        assert len(mcs[0]) == 1

    def test_duplicate_points_share_one_mc(self):
        pts = np.tile(np.array([[0.3, 0.3]]), (10, 1))
        mcs, _, point_mc = build_micro_clusters(pts, eps=0.5)
        assert len(mcs) == 1
        assert (point_mc == 0).all()

    def test_far_points_each_found_mc(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        mcs, _, _ = build_micro_clusters(pts, eps=0.5)
        assert len(mcs) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="eps"):
            build_micro_clusters(np.zeros((2, 2)), eps=0.0)
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            build_micro_clusters(np.zeros(4), eps=1.0)
        # one builder: the strategy keyword no longer exists
        with pytest.raises(TypeError, match="builder"):
            build_micro_clusters(np.zeros((2, 2)), eps=1.0, builder="scan")
        with pytest.raises(ValueError, match="block_size"):
            build_micro_clusters(np.zeros((2, 2)), eps=1.0, block_size=0)


def _assert_builders_identical(pts, eps, *, metric=EUCLIDEAN, defer_2eps=True, block_size=4096):
    """Run the grid builder and the reference scan; require bit-identical
    structures + counters, both as the production store's arrays and as
    the per-MC object view, and identical Algorithm-5 reach lists."""
    c_scan, c_grid, c_store = Counters(), Counters(), Counters()
    scan_mcs, scan_tree, scan_pm = build_micro_clusters_scan(
        pts, eps, counters=c_scan, defer_2eps=defer_2eps, metric=metric
    )
    grid_mcs, grid_tree, grid_pm = build_micro_clusters(
        pts,
        eps,
        counters=c_grid,
        defer_2eps=defer_2eps,
        metric=metric,
        block_size=block_size,
    )
    assert np.array_equal(scan_pm, grid_pm)
    assert len(scan_mcs) == len(grid_mcs)
    for a, b in zip(scan_mcs, grid_mcs):
        assert a.mc_id == b.mc_id
        assert a.center_row == b.center_row
        assert np.array_equal(a.member_rows, b.member_rows)  # order included
        assert np.array_equal(a.member_points, b.member_points)
        assert np.array_equal(a.ic_rows, b.ic_rows)
        assert np.array_equal(a.mbr_low, b.mbr_low)
        assert np.array_equal(a.mbr_high, b.mbr_high)
    for field in ("dist_calcs", "deferred_points", "micro_clusters"):
        assert getattr(c_scan, field) == getattr(c_grid, field), field
    # same MC boxes in the first-level tree (node layout may differ:
    # dynamic Guttman inserts vs one STR pack)
    assert sorted(scan_tree.iter_payloads()) == sorted(grid_tree.iter_payloads())

    # the production store: the reference objects' arrays, flattened
    store = MuRTree(
        pts,
        eps,
        defer_2eps=defer_2eps,
        metric=metric,
        builder_block_size=block_size,
        counters=c_store,
    )
    def flat(attr):
        parts = [getattr(mc, attr).ravel() for mc in scan_mcs]
        return np.concatenate(parts) if parts else np.empty(0)

    def offsets(attr):
        return np.cumsum([0] + [len(getattr(mc, attr)) for mc in scan_mcs])

    assert np.array_equal(store.point_mc, scan_pm)
    assert store.center_rows.tolist() == [mc.center_row for mc in scan_mcs]
    assert np.array_equal(store.member_offsets, offsets("member_rows"))
    assert np.array_equal(store.ic_offsets, offsets("ic_rows"))
    for name, attr in (
        ("member_flat", "member_rows"),
        ("member_points", "member_points"),
        ("mbr_low", "mbr_low"),
        ("mbr_high", "mbr_high"),
        ("ic_flat", "ic_rows"),
    ):
        assert np.array_equal(getattr(store, name).ravel(), flat(attr)), name
    for field in ("dist_calcs", "deferred_points", "micro_clusters"):
        assert getattr(c_scan, field) == getattr(c_store, field), field

    # Algorithm 5: the grid join on the centers reproduces the level-1
    # tree probe
    centers = store.points[store.center_rows]
    c_tree, c_join = Counters(), Counters()
    probe = compute_reachable_probe(centers, scan_tree, eps, c_tree, metric=metric)
    reach_offsets, reach_flat = compute_reachable(centers, eps, c_join, metric=metric)
    assert reach_flat.dtype == np.int64
    assert np.array_equal(probe[0], reach_offsets)
    assert np.array_equal(probe[1], reach_flat)
    assert c_tree.dist_calcs == c_join.dist_calcs
    bounds = reach_offsets.tolist()
    for mc, lo, hi in zip(grid_mcs, bounds[:-1], bounds[1:]):
        mc.reach_ids = reach_flat[lo:hi]
        assert np.all(np.diff(mc.reach_ids) > 0)
    return grid_mcs


def _lattice(seed, n, dim, scale_num, span):
    """``n`` points on a ``span``-wide lattice of pitch ε/4, and ε."""
    eps = 0.25 * scale_num
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=(n, dim)).astype(np.float64) * (eps / 4.0), eps


class TestGridBuilderParity:
    """The grid-hash builder must be bit-for-bit the reference scan."""

    @pytest.mark.parametrize("name", dataset_names())
    def test_registry_euclidean(self, name):
        pts, spec = load_dataset(name, scale=0.12, seed=7)
        _assert_builders_identical(pts, spec.eps)

    @pytest.mark.parametrize("name", dataset_names()[::3])
    def test_registry_chebyshev(self, name):
        # L-inf exercises the cover-factor-scaled (sqrt(d)) search radius
        pts, spec = load_dataset(name, scale=0.1, seed=11)
        _assert_builders_identical(pts, spec.eps, metric=CHEBYSHEV)

    @pytest.mark.parametrize("name", dataset_names()[1::4])
    def test_registry_manhattan(self, name):
        pts, spec = load_dataset(name, scale=0.1, seed=13)
        _assert_builders_identical(pts, spec.eps, metric=MANHATTAN)

    @pytest.mark.parametrize("defer_2eps", [True, False])
    def test_no_defer_ablation(self, medium_blobs_3d, defer_2eps):
        _assert_builders_identical(medium_blobs_3d, 0.1, defer_2eps=defer_2eps)

    def test_empty_and_singleton(self):
        _assert_builders_identical(np.empty((0, 3)), 0.5)
        _assert_builders_identical(np.array([[1.0, 2.0, 3.0]]), 0.5)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        dim=st.integers(1, 4),
        scale_num=st.integers(1, 8),
    )
    def test_adversarial_eps_boundary(self, seed, n, dim, scale_num):
        """Points engineered onto the ε / 2ε decision boundaries.

        Draw points from a lattice of pitch ε/4: many pairs land at
        *exactly* k·ε/4 apart per axis, so join-vs-defer-vs-create
        verdicts hinge on the last ulp of the distance computation —
        precisely where a shape-dependent batched kernel would diverge
        from the per-point scan.
        """
        pts, eps = _lattice(seed, n, dim, scale_num, 12)
        for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV):
            _assert_builders_identical(pts, eps, metric=metric, block_size=16)


class TestReachabilityParity:
    """Edge cases of the grid join behind Algorithm 5 (the registry and
    lattice cases above already run it through the parity helper)."""

    def test_zero_and_one_micro_cluster(self):
        assert _assert_builders_identical(np.empty((0, 2)), 1.0) == []
        (mc,) = _assert_builders_identical(np.array([[0.5, -0.5]]), 1.0)
        assert mc.reach_ids.tolist() == [0]

    def test_every_center_in_one_cell(self):
        # cells are wider than 4ε and the points span 3.5ε from the origin
        rng = np.random.default_rng(21)
        pts = rng.random((300, 2)) * 3.5
        mcs = _assert_builders_identical(pts, 1.0)
        assert len(mcs) > 5

    def test_negative_coordinates_with_large_offset(self):
        rng = np.random.default_rng(22)
        pts = rng.random((400, 3)) * 6.0 - 1e9
        for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV):
            _assert_builders_identical(pts, 0.3, metric=metric)

    def test_sparse_8d_cell_keys_beyond_int64(self):
        # tight groups scattered over 1e7 per axis: a key linearised over
        # the occupied cell ranges would need far more than 63 bits
        rng = np.random.default_rng(23)
        groups = rng.random((40, 8)) * 1e7
        pts = (groups[:, None, :] + rng.random((40, 8, 8)) * 3.0).reshape(-1, 8)
        cells = np.floor(pts / 4.0).astype(np.int64)
        span = cells.max(axis=0) - cells.min(axis=0) + 1
        assert math.prod(int(x) for x in span) > 2**63
        mcs = _assert_builders_identical(pts, 1.0)
        assert max(len(mc.reach_ids) for mc in mcs) > 1

    @pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, CHEBYSHEV], ids=lambda m: m.name)
    def test_pass_budgets_and_row_subsets(self, metric, monkeypatch):
        # centers on an ε/4 lattice, so many pairs sit exactly at 3ε or
        # on a box face; every pass budget, down to one pair a pass, and
        # every split of the MCs into row subsets gives the full join
        rng = np.random.default_rng(24)
        eps = 1.0
        pts = rng.integers(0, 40, size=(900, 3)).astype(np.float64) * (eps / 4.0)
        _, center_rows, _, _ = build_micro_cluster_arrays(pts, eps, metric=metric)
        centers = pts[center_rows]
        m = centers.shape[0]
        full = Counters()
        offsets, flat = compute_reachable(centers, eps, full, metric=metric)
        for budget in (1, 7):
            monkeypatch.setattr(reachability, "_JOIN_PAIRS", budget)
            c = Counters()
            got = compute_reachable(centers, eps, c, metric=metric)
            assert np.array_equal(got[0], offsets) and np.array_equal(got[1], flat)
            assert c.dist_calcs == full.dist_calcs
        monkeypatch.undo()
        for _ in range(3):
            part = rng.integers(0, 3, m)
            dist_calcs = 0
            for k in range(3):
                rows = np.flatnonzero(part == k)
                c = Counters()
                sub_off, sub_flat = compute_reachable(centers, eps, c, metric=metric, rows=rows)
                assert sub_off.shape == (rows.size + 1,)
                for pos, row in enumerate(rows):
                    assert np.array_equal(
                        sub_flat[sub_off[pos] : sub_off[pos + 1]],
                        flat[offsets[row] : offsets[row + 1]],
                    )
                dist_calcs += c.dist_calcs
            assert dist_calcs == full.dist_calcs
        assert m > 200 and full.dist_calcs > flat.size > m


class TestGridBuilderRobustness:
    """Inputs where a hash of raw coordinates would break the grid path."""

    def test_coordinates_beyond_int64_cells(self):
        # 2e19 / ε cells overflow int64; at that magnitude the far points
        # sit on a 4096-spaced float lattice, 64 distinct positions
        rng = np.random.default_rng(41)
        near = rng.random((50, 2)) * 5.0
        far = 2e19 + rng.random((200, 2)) * 32768.0
        pts = np.concatenate([near, far])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mcs = _assert_builders_identical(pts, 1.0, block_size=16)
        centers = np.stack([mc.center for mc in mcs])
        assert np.unique(centers, axis=0).shape[0] == len(mcs) == 86

    def test_sparse_input_peak_memory(self):
        # the density of 20,000 points in a 100³ cube: nearly every
        # point founds an MC, so each block holds thousands of newborns
        pts = np.random.default_rng(5).random((8000, 3)) * 73.7
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mcs, _, _ = build_micro_clusters(pts, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mcs) > 7500
        assert peak < 24 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestIntraBlockFixup:
    """A block containing a new-MC founder plus later joiners must replay
    the sequential scan exactly (the founder is invisible to the
    pre-block vectorized pass)."""

    @pytest.fixture
    def crafted(self):
        eps = 1.0
        pts = np.array(
            [
                [0.0, 0.0],    # 0: founds MC 0
                [10.0, 0.0],   # 1: founds MC 1 (far from MC 0)
                [10.4, 0.0],   # 2: joins MC 1 in the same block
                [11.5, 0.0],   # 3: within 2ε of MC 1's center -> deferred
                [0.3, 0.1],    # 4: joins MC 0
                [10.9, 0.0],   # 5: joins MC 1 (0.9 < eps)
                [12.3, 0.0],   # 6: founds MC 2; point 3 later joins it
            ]
        )
        return pts, eps

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    def test_block_sizes(self, crafted, block_size):
        pts, eps = crafted
        mcs = _assert_builders_identical(pts, eps, block_size=block_size)
        assert len(mcs) == 3
        assert [list(mc.member_rows) for mc in mcs] == [[0, 4], [1, 2, 5], [6, 3]]

    def test_deferral_happened(self, crafted):
        pts, eps = crafted
        counters = Counters()
        build_micro_clusters(pts, eps, counters=counters)
        assert counters.deferred_points == 1
        assert counters.micro_clusters == 3

    @pytest.mark.parametrize("block_size", [1, 3, 4096])
    def test_joiner_across_cell_corner(self, block_size):
        # cells are ~3ε wide (search radius 2ε + ε): row 1 lies just past
        # the (3, 3) corner from newborn row 0, in the diagonal cell; the
        # far rows occupy enough cells for the 3² stencil to apply
        eps = 1.0
        far = [[30.0 * k, -40.0] for k in range(1, 11)]
        pts = np.array([[2.9, 2.9], [3.1, 3.1], *far])
        mcs = _assert_builders_identical(pts, eps, block_size=block_size)
        assert [list(mc.member_rows) for mc in mcs] == [[0, 1]] + [
            [row] for row in range(2, 12)
        ]

    @pytest.mark.parametrize("block_size", [1, 3, 5, 64])
    def test_dense_chain_all_block_sizes(self, block_size):
        # a chain of points 0.6·eps apart: every third point founds an MC
        # and its in-block successors must immediately see it
        eps = 1.0
        pts = np.stack([np.arange(40) * 0.6, np.zeros(40)], axis=1)
        _assert_builders_identical(pts, eps, block_size=block_size)


def _scan_with_centers(points, eps, centers, metric, defer_2eps):
    """Algorithm 3 one point at a time against the MCs ``centers``
    (ids ``0..k-1``) plus those founded so far: join the nearest center
    strictly within ε (lowest id on ties), else wait when one lies
    within 2ε, else found; the waiting rows are placed in a second pass.
    Returns ``(point_mc, founders, deferred, leaf_tests)``, the last
    being the centers whose ε-box the builder's probe ball touches."""
    n, dim = points.shape
    cover = metric.l2_cover_factor(dim)
    eps_raw, two_eps_raw = metric.threshold(eps), metric.threshold(2.0 * eps)
    known = [c for c in centers]
    point_mc = np.full(n, -1, dtype=np.int64)
    founders, waiting = [], []
    leaf_tests = 0

    def nearest(p, radius):
        nonlocal leaf_tests
        if not known:
            return np.inf, -1
        c = np.array(known)
        gap = p - np.clip(p, c - eps, c + eps)
        leaf_tests += int(np.count_nonzero(np.einsum("ij,ij->i", gap, gap) <= radius**2))
        raw = metric.raw_to_point(c, p)
        best = int(np.argmin(raw))  # the first of equal values: the lowest id
        return raw[best], best

    def place(i, low, best):
        if low < eps_raw:
            point_mc[i] = best
        else:
            point_mc[i] = len(known)
            founders.append(i)
            known.append(points[i])

    for i in range(n):
        low, best = nearest(points[i], (2.0 if defer_2eps else 1.0) * eps * cover)
        if defer_2eps and eps_raw <= low < two_eps_raw:
            waiting.append(i)
        else:
            place(i, low, best)
    for i in waiting:
        place(i, *nearest(points[i], eps * cover))
    return point_mc, np.asarray(founders, dtype=np.int64), len(waiting), leaf_tests


def _check_placement(case):
    """The builder placing ``case``'s rows against its centers equals
    :func:`_scan_with_centers`, counters included."""
    pts, centers, eps, metric, defer, block = case
    counters = Counters()
    point_mc, founders, offsets, flat = build_micro_cluster_arrays(
        pts, eps, counters=counters, metric=metric, defer_2eps=defer,
        block_size=block, centers=centers,
    )
    want_mc, want_founders, n_waiting, leaf_tests = _scan_with_centers(
        pts, eps, centers, metric, defer
    )
    np.testing.assert_array_equal(point_mc, want_mc)
    np.testing.assert_array_equal(founders, want_founders)
    assert counters.micro_clusters == founders.size
    assert counters.deferred_points == n_waiting
    assert counters.dist_calcs == leaf_tests
    # the member CSR covers every MC, given or new, with rows of pts
    assert offsets.shape == (centers.shape[0] + founders.size + 1,)
    np.testing.assert_array_equal(np.sort(flat), np.arange(pts.shape[0]))
    owner = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    np.testing.assert_array_equal(point_mc[flat], owner)


@st.composite
def _placement_case(draw):
    dim = draw(st.integers(1, 3))
    lattice = draw(st.booleans())
    if lattice:  # integer points and ε: exact ties and boundary distances
        coord = st.integers(-3, 3).map(float)
        eps = draw(st.sampled_from([1.0, 1.5, 2.0]))
    else:
        coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        eps = draw(st.sampled_from([0.3, 0.8]))

    def rows(max_size):
        k = draw(st.integers(0, max_size))
        flat = draw(st.lists(coord, min_size=k * dim, max_size=k * dim))
        return np.array(flat, dtype=np.float64).reshape(k, dim)

    return (
        rows(40), rows(10), eps,
        draw(st.sampled_from([EUCLIDEAN, MANHATTAN, CHEBYSHEV])),
        draw(st.booleans()), draw(st.sampled_from([1, 3, 4096])),
    )


class TestPlacementAgainstCenters:
    """``build_micro_cluster_arrays(points, eps, centers=C)`` places rows
    against MCs that exist before the scan, as a streaming insert does."""

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_placement_case())
    def test_equals_per_point_scan(self, case):
        _check_placement(case)

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_placement_case(), st.integers(0, 40))
    def test_split_scan_equals_one_scan(self, case, cut):
        # without the 2ε wait nothing is placed out of order, so a scan
        # resumed from the first part's centers is the same scan
        pts, _, eps, metric, _, block = case
        cut = min(cut, pts.shape[0])
        whole, parts = Counters(), Counters()
        kw = dict(metric=metric, defer_2eps=False, block_size=block)
        point_mc, founders, _, _ = build_micro_cluster_arrays(
            pts, eps, counters=whole, **kw
        )
        mc_a, founders_a, _, _ = build_micro_cluster_arrays(
            pts[:cut], eps, counters=parts, **kw
        )
        mc_b, founders_b, _, _ = build_micro_cluster_arrays(
            pts[cut:], eps, counters=parts, centers=pts[founders_a], **kw
        )
        np.testing.assert_array_equal(point_mc, np.concatenate([mc_a, mc_b]))
        np.testing.assert_array_equal(
            founders, np.concatenate([founders_a, founders_b + cut])
        )
        assert whole.as_dict() == parts.as_dict()

    def test_empty_inputs(self):
        centers = np.array([[0.0, 0.0], [3.0, 0.0]])
        point_mc, founders, offsets, flat = build_micro_cluster_arrays(
            np.empty((0, 2)), 1.0, centers=centers
        )
        assert point_mc.size == founders.size == flat.size == 0
        np.testing.assert_array_equal(offsets, [0, 0, 0])
        pts = np.array([[0.5, 0.0], [2.6, 0.0], [9.0, 9.0]])
        counters = Counters()
        point_mc, founders, _, _ = build_micro_cluster_arrays(
            pts, 1.0, counters=counters, centers=np.empty((0, 2))
        )
        plain, plain_founders, _, _ = build_micro_cluster_arrays(pts, 1.0)
        np.testing.assert_array_equal(point_mc, plain)
        np.testing.assert_array_equal(founders, plain_founders)
        point_mc, founders, _, _ = build_micro_cluster_arrays(pts, 1.0, centers=centers)
        np.testing.assert_array_equal(point_mc, [0, 1, 2])
        np.testing.assert_array_equal(founders, [2])
        with pytest.raises(ValueError, match="centers"):
            build_micro_cluster_arrays(pts, 1.0, centers=np.zeros((2, 3)))


#: ``_ROUND_MIN_FOUNDERS`` values that force one founding path on every
#: block: rounds until the block is decided (the no-stencil blocks still
#: walk), or the row-by-row walk alone
_PATHS = {"rounds": 1, "walk": 2**62}


@contextlib.contextmanager
def _founding(path=None, pair_budget=None):
    """Force ``path`` (default: neither); yields a list that gets the
    size of each pass of the founding rounds' :func:`pair_passes`."""
    passes = []

    def spy(*args):
        for owner, later in grid.pair_passes(*args):
            passes.append(owner.size)
            yield owner, later

    with pytest.MonkeyPatch.context() as mp:
        if path is not None:
            mp.setattr(builder, "_ROUND_MIN_FOUNDERS", _PATHS[path])
        mp.setattr(builder, "pair_passes", spy)
        if pair_budget is not None:
            mp.setattr(builder, "_PAIR_BUDGET", pair_budget)
        yield passes


def _chain(n, gap):
    """``n`` points in row order along a line, ``gap`` apart (ε = 1)."""
    return np.stack([np.arange(n) * gap, np.zeros(n)], axis=1)


class TestFoundingPaths:
    """Each block founds its MCs in rounds and then walks what the
    rounds leave; both paths, forced on every block, must equal the
    reference scan bit for bit."""

    @pytest.mark.parametrize("path", _PATHS)
    @pytest.mark.parametrize("name", dataset_names()[::3])
    def test_registry_three_metrics(self, name, path):
        pts, spec = load_dataset(name, scale=0.1, seed=19)
        for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV):
            with _founding(path) as passes:
                _assert_builders_identical(pts, spec.eps, metric=metric)
            if path == "walk":
                assert not passes

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 160),
        dim=st.integers(1, 3),
        scale_num=st.integers(1, 8),
    )
    def test_adversarial_eps_boundary(self, seed, n, dim, scale_num):
        # the ε/4 lattice of TestGridBuilderParity, wide enough (16ε)
        # for its cells to outnumber the stencil, so rounds can run
        pts, eps = _lattice(seed, n, dim, scale_num, 64)
        for path in _PATHS:
            for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV):
                with _founding(path):
                    _assert_builders_identical(pts, eps, metric=metric, block_size=16)

    @pytest.mark.parametrize("path", _PATHS)
    @pytest.mark.parametrize("gap", [0.6, 1.9])
    def test_sorted_chains(self, gap, path):
        # every listed row waits on the one before it: one newborn a round
        for block_size in (16, 4096):
            with _founding(path) as passes:
                _assert_builders_identical(_chain(300, gap), 1.0, block_size=block_size)
            assert bool(passes) == (path == "rounds")

    @pytest.mark.parametrize("path", _PATHS)
    def test_no_stencil_cloud_walks(self, path):
        # 16-D: the 3^16 stencil outnumbers the cells, so no block runs
        # rounds whatever the threshold
        pts = np.random.default_rng(31).normal(0.0, 0.6, (300, 16))
        with _founding(path) as passes:
            _assert_builders_identical(pts, 0.5)
        assert not passes

    @pytest.mark.parametrize("pair_budget", [1, 7])
    def test_round_pass_budgets(self, pair_budget):
        rng = np.random.default_rng(32)
        pts = rng.random((600, 2)) * 30.0
        for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV):
            with _founding("rounds", pair_budget) as passes:
                _assert_builders_identical(pts, 1.0, metric=metric)
            assert passes and max(passes) <= pair_budget
        with _founding("rounds", pair_budget):
            _assert_builders_identical(_chain(200, 0.7), 1.0, block_size=64)

    def test_default_runs_rounds_then_walks(self):
        # a uniform 3-D cloud: rounds decide most of each block; on a
        # chain the first round finds one newborn, so the walk takes over
        pts = np.random.default_rng(33).random((3000, 3)) * 25.0
        with _founding() as cloud:
            _assert_builders_identical(pts, 1.0)
        with _founding() as chain:
            _assert_builders_identical(_chain(300, 0.7), 1.0)
        assert cloud and not chain

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_placement_case())
    def test_placement_against_centers(self, case):
        for path in _PATHS:
            with _founding(path):
                _check_placement(case)
