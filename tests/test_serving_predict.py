"""Predict parity: the pruned online assignment vs the brute oracle.

The acceptance bar: for every dataset in the registry, ``predict``
agrees with brute-force DBSCAN-predict (nearest-core-within-ε rule)
for on-manifold, off-manifold and exactly-ε-boundary query points, at
1-point and 512-point batch sizes.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.data.registry import REGISTRY, dataset_names
from repro.index import grid as grid_mod
from repro.serving import predict as predict_mod
from repro.serving.engine import QueryEngine
from repro.serving.fleet.router import ShardedPredictor
from repro.serving.model import FittedModel, fit_model
from repro.serving.predict import PredictResult, brute_predict, predict_model

#: keep each registry dataset to roughly this many points for the sweep
_TARGET_N = 240


def _registry_workload(name: str):
    spec = REGISTRY[name]
    scale = min(1.0, _TARGET_N / spec.base_n)
    pts = spec.generate(scale=scale)
    return pts, spec


def _query_suite(pts: np.ndarray, eps: float, seed: int = 99) -> np.ndarray:
    """On-manifold + off-manifold + exactly-ε-boundary queries."""
    rng = np.random.default_rng(seed)
    n, d = pts.shape
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    take = rng.choice(n, size=min(24, n), replace=False)
    on_manifold = pts[take] + rng.normal(0.0, 0.05 * eps, (take.size, d))
    off_manifold = hi + span * rng.uniform(1.0, 2.0, (12, d))  # far outside
    # exactly at distance ε of a dataset point along the first axis —
    # under strict-< semantics that point is NOT an ε-neighbor
    boundary = pts[take[:12]].copy()
    boundary[:, 0] += eps
    exact_copies = pts[take[:8]]  # distance-0 duplicates
    return np.vstack([on_manifold, off_manifold, boundary, exact_copies])


def _assert_same(a: PredictResult, b: PredictResult) -> None:
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.would_be_core, b.would_be_core)
    np.testing.assert_array_equal(a.nearest_core, b.nearest_core)
    np.testing.assert_array_equal(a.n_neighbors, b.n_neighbors)
    np.testing.assert_allclose(a.nearest_core_dist, b.nearest_core_dist)


@pytest.mark.parametrize("name", dataset_names())
def test_registry_parity(name):
    pts, spec = _registry_workload(name)
    model = fit_model(pts, spec.eps, spec.min_pts)
    queries = _query_suite(pts, spec.eps)
    oracle = brute_predict(
        pts, model.labels, model.core_mask, spec.eps, spec.min_pts, queries
    )
    # 512-point batch (the whole suite in one call)
    _assert_same(predict_model(model, queries), oracle)
    # 1-point batches: every query answered alone
    for i in range(queries.shape[0]):
        got = predict_model(model, queries[i])
        assert got.labels[0] == oracle.labels[i], f"{name} query {i}"
        assert got.would_be_core[0] == oracle.would_be_core[i]
        assert got.nearest_core[0] == oracle.nearest_core[i]
        assert got.n_neighbors[0] == oracle.n_neighbors[i]


class TestSemantics:
    def test_boundary_point_is_not_neighbor(self):
        """A query exactly ε away from every cluster point is noise."""
        pts = np.zeros((10, 2))
        pts[:, 0] = np.linspace(0, 0.001, 10)  # tight clump at origin
        eps, min_pts = 0.5, 3
        model = fit_model(pts, eps, min_pts)
        assert model.core_mask.all()
        at_eps = np.array([[pts[:, 0].max() + eps, 0.0]])
        res = predict_model(model, at_eps)
        # nearest clump point sits at exactly eps -> strict < excludes it;
        # the rest sit farther -> noise, zero neighbors... except points
        # closer than the max-x one:
        oracle = brute_predict(
            pts, model.labels, model.core_mask, eps, min_pts, at_eps
        )
        assert res.labels[0] == oracle.labels[0]
        assert res.n_neighbors[0] == oracle.n_neighbors[0]
        # and strictly inside by a hair joins the cluster
        inside = at_eps - np.array([[1e-9, 0.0]])
        assert predict_model(model, inside).labels[0] == 0

    def test_self_counted_in_would_be_core(self):
        """would_be_core counts the query itself, like fitted points."""
        pts = np.zeros((4, 2)) + np.arange(4)[:, None] * 0.01
        model = fit_model(pts, 1.0, 5)  # 4 points: nobody is core
        assert not model.core_mask.any()
        res = predict_model(model, np.array([[0.0, 0.0]]))
        # 4 stored neighbors + itself = 5 >= MinPts
        assert res.n_neighbors[0] == 4
        assert bool(res.would_be_core[0])
        assert res.labels[0] == -1  # no core in range -> still unassigned

    def test_tie_breaks_by_distance_then_index(self):
        """Two equidistant cores from different clusters: lowest row wins."""
        left = np.zeros((5, 2)) - np.array([1.0, 0.0])
        right = np.zeros((5, 2)) + np.array([1.0, 0.0])
        pts = np.vstack([left, right])
        # eps=1.5: the clumps (separation 2.0) stay distinct clusters,
        # but BOTH cores sit within eps of the origin, at distance 1.0
        model = fit_model(pts, 1.5, 3)
        assert model.core_mask.all()
        assert set(np.unique(model.labels)) == {0, 1}
        res = predict_model(model, np.array([[0.0, 0.0]]))
        oracle = brute_predict(
            pts, model.labels, model.core_mask, 1.5, 3, np.array([[0.0, 0.0]])
        )
        assert res.labels[0] == oracle.labels[0] == model.labels[0]
        assert res.nearest_core[0] == oracle.nearest_core[0] == 0

    def test_noise_area_query(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        far = np.full((1, 2), 1e6)
        res = predict_model(model, far)
        assert res.labels[0] == -1
        assert res.nearest_core[0] == -1
        assert not np.isfinite(res.nearest_core_dist[0])

    def test_counters_charged(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        before = model.serving_counters.dist_calcs
        predict_model(model, small_blobs[:16])
        assert model.serving_counters.queries_run == 16
        assert model.serving_counters.dist_calcs > before

    def test_block_size_invariance(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        q = small_blobs[::3]
        a = predict_model(model, q, block_size=4)
        b = predict_model(model, q, block_size=1024)
        _assert_same(a, b)

    def test_dataset_points_predict_their_own_cluster(self, medium_blobs_3d):
        """Core points re-queried must land in their own cluster, and
        their nearest core is themselves at distance 0."""
        model = fit_model(medium_blobs_3d, 0.35, 8)
        core_rows = np.flatnonzero(model.core_mask)[:64]
        res = predict_model(model, medium_blobs_3d[core_rows])
        np.testing.assert_array_equal(res.labels, model.labels[core_rows])
        np.testing.assert_array_equal(res.nearest_core, core_rows)
        np.testing.assert_allclose(res.nearest_core_dist, 0.0)
        assert res.would_be_core.all()

    def test_manhattan_parity(self, small_blobs):
        model = fit_model(small_blobs, 0.1, 5, metric="manhattan")
        queries = _query_suite(small_blobs, 0.1)
        got = predict_model(model, queries)
        want = brute_predict(
            small_blobs, model.labels, model.core_mask, 0.1, 5, queries,
            metric="manhattan",
        )
        _assert_same(got, want)

    def test_rejects_wrong_dim(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        with pytest.raises(ValueError, match="queries must be"):
            predict_model(model, np.zeros((3, 5)))

    def test_empty_query_batch(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        res = predict_model(model, np.empty((0, 2)))
        assert len(res) == 0


def _oracle(model, queries, **kw) -> PredictResult:
    return brute_predict(
        model.points, model.labels, model.core_mask, model.params.eps,
        model.params.min_pts, queries, metric=model.metric_name, **kw,
    )


class TestOddQueries:
    """Rows no center can be near — NaN, ±inf, coordinates far past
    every center — route nowhere and answer as noise with 0 neighbors.
    They must never reach the integer cell cast, which warns on NaN and
    wraps on 1e300, so every call here runs with warnings as errors.
    The CLI's ``predict --input`` and ``Fleet.predict`` hand such rows
    to the kernel unchecked (only the HTTP front door rejects them)."""

    ODD = np.array(
        [
            [np.nan, 0.0],
            [0.0, np.nan],
            [np.inf, 0.0],
            [-np.inf, 1.0],
            [1e300, 0.0],
            [0.0, -1e300],
            [1e300, 1e300],
            [np.inf, -np.inf],
        ]
    )

    def _queries(self, pts):
        # odd rows between ordinary ones, so a dropped row cannot shift
        # the answers of its neighbours in the batch
        return np.vstack([pts[:8], self.ODD, pts[8:16] + 0.01])

    def test_brute_parity_without_warnings(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        queries = self._queries(small_blobs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = predict_model(model, queries)
            want = _oracle(model, queries)
        _assert_same(got, want)
        odd = slice(8, 8 + self.ODD.shape[0])
        assert (got.labels[odd] == -1).all()
        assert (got.n_neighbors[odd] == 0).all()
        assert (got.nearest_core[odd] == -1).all()
        assert (got.n_neighbors[:8] > 0).all()  # the ordinary rows still route

    def test_sharded_path(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        queries = self._queries(small_blobs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ShardedPredictor(model, 2).predict(queries)
        _assert_same(got, _oracle(model, queries))


class TestFarFromOrigin:
    """ε-boundary queries on a model 10⁷ from the origin.  The cell
    width grows with the centers' magnitude, and ``q / width`` rounds
    there; a query within 2ε of a center must still land in an adjacent
    cell.  On a 1/1024 lattice the shift is exact, so every boundary
    query stays exactly ε from its stored point, and the answers must
    equal both the oracle's and those of the unshifted model."""

    EPS = 1.0

    @pytest.fixture(scope="class")
    def lattice(self):
        rng = np.random.default_rng(5)
        pts = np.round(rng.uniform(0, 12, (1500, 3)) * 1024) / 1024
        take = rng.choice(pts.shape[0], 40, replace=False)
        parts = []
        for axis in range(3):
            for step in (self.EPS, -self.EPS, self.EPS - 2.0**-10):
                q = pts[take].copy()
                q[:, axis] += step
                parts.append(q)
        return pts, np.vstack(parts)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_boundary_parity_after_shift(self, lattice, metric):
        pts, queries = lattice
        base = predict_model(fit_model(pts, self.EPS, 8, metric=metric), queries)
        shift = 1e7
        model = fit_model(pts + shift, self.EPS, 8, metric=metric)
        np.testing.assert_array_equal(queries + shift - shift, queries)
        got = predict_model(model, queries + shift)
        _assert_same(got, _oracle(model, queries + shift))
        np.testing.assert_array_equal(got.labels >= 0, base.labels >= 0)
        np.testing.assert_array_equal(got.n_neighbors, base.n_neighbors)
        np.testing.assert_array_equal(got.nearest_core, base.nearest_core)


class TestPasses:
    """(query, member) pairs are scored in passes of at most
    ``repro.index.grid._PAIR_BUDGET`` pairs, whatever the batch."""

    def _spy(self, monkeypatch):
        sizes = []
        score = predict_mod._score_pass

        def spy(model, q, q_idx, rows, *rest):
            sizes.append(rows.size)
            return score(model, q, q_idx, rows, *rest)

        monkeypatch.setattr(predict_mod, "_score_pass", spy)
        return sizes

    def test_2048_queries_stay_within_the_pair_budget(
        self, medium_blobs_3d, monkeypatch
    ):
        model = fit_model(medium_blobs_3d, 0.35, 8)
        rng = np.random.default_rng(3)
        rows = rng.integers(0, medium_blobs_3d.shape[0], 2048)
        queries = medium_blobs_3d[rows] + rng.normal(0.0, 0.05, (2048, 3))
        sizes = self._spy(monkeypatch)
        got = predict_model(model, queries)
        assert len(sizes) > 1 and max(sizes) <= grid_mod._PAIR_BUDGET
        _assert_same(got, _oracle(model, queries))

    def test_ranges_split_between_passes(self, medium_blobs_3d, monkeypatch):
        # a budget smaller than most member lists splits one query's
        # pairs, and one micro-cluster's members, between passes
        model = fit_model(medium_blobs_3d, 0.35, 8)
        queries = medium_blobs_3d[::5] + 0.01
        want = predict_model(model, queries)
        monkeypatch.setattr(grid_mod, "_PAIR_BUDGET", 37)
        sizes = self._spy(monkeypatch)
        for block_size in (1, 7, 1024):
            _assert_same(predict_model(model, queries, block_size=block_size), want)
        assert max(sizes) <= 37
        _assert_same(want, _oracle(model, queries))


class TestRouteTable:
    """Prediction reads the stored arrays and the routing table only;
    no request or startup path builds the μR-tree view."""

    def test_built_once_and_no_murtree(self, small_blobs):
        loaded = FittedModel.from_bytes(fit_model(small_blobs, 0.08, 6).to_bytes())
        predict_model(loaded, small_blobs[:16])
        table = loaded.route_table
        predict_model(loaded, small_blobs[16:32])
        assert loaded.route_table is table
        assert loaded._murtree is None
        assert loaded.serving_counters.micro_clusters == 0

    def test_engine_and_shards_build_no_murtree(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        loaded = FittedModel.from_bytes(model.to_bytes())
        engine = QueryEngine(loaded)
        try:
            engine.predict(small_blobs[:8])
            other = FittedModel.from_bytes(model.to_bytes())
            engine.swap_model(other)
            engine.predict(small_blobs[8:16])
        finally:
            engine.close()
        assert loaded._murtree is None and other._murtree is None
        sharded = ShardedPredictor(loaded, 2)
        sharded.predict(small_blobs[:32])
        for shard in sharded.shards.values():
            assert shard.model._route_table is not None
            assert shard.model._murtree is None
