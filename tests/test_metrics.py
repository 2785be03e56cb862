"""Tests for non-Euclidean metric support.

μDBSCAN's lemmas need only the triangle inequality, so the algorithm
must stay exact under L1 and L∞ — these tests pin that down against a
metric-aware brute-force oracle and scipy's distance functions.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro import brute_dbscan, check_exact, mu_dbscan
from repro.data.synthetic import blobs_with_noise
from repro.geometry.metrics import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    get_metric,
)
from repro.validation.definition import validate_definition

ALL_METRICS = [EUCLIDEAN, MANHATTAN, CHEBYSHEV]
_SCIPY_NAME = {"euclidean": "euclidean", "manhattan": "cityblock", "chebyshev": "chebyshev"}


class TestMetricPrimitives:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_raw_to_point_matches_scipy(self, rng, metric):
        pts = rng.normal(size=(40, 5))
        q = rng.normal(size=5)
        raw = metric.raw_to_point(pts, q)
        true = cdist(pts, q[None, :], metric=_SCIPY_NAME[metric.name]).ravel()
        # raw < threshold(r) must agree with true < r for many radii
        for r in (0.1, 0.5, 1.0, 2.0, 5.0):
            np.testing.assert_array_equal(raw < metric.threshold(r), true < r)

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_raw_pairwise_matches_scipy(self, rng, metric):
        a = rng.normal(size=(15, 3))
        b = rng.normal(size=(10, 3))
        raw = metric.raw_pairwise(a, b)
        true = cdist(a, b, metric=_SCIPY_NAME[metric.name])
        np.testing.assert_array_equal(
            raw < metric.threshold(0.8), true < 0.8
        )

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_point_rect_lower_bounds_members(self, rng, metric):
        """The box distance must never exceed the distance to any point
        inside the box (the pruning-soundness requirement)."""
        low = rng.normal(size=3)
        high = low + rng.random(3) + 0.1
        q = rng.normal(size=3) * 3
        rect_raw = metric.raw_point_rect(q, low, high)
        inside = rng.uniform(low, high, size=(50, 3))
        raws = metric.raw_to_point(inside, q)
        assert (raws >= rect_raw - 1e-12).all()

    def test_l2_cover_factor_soundness(self, rng):
        """A metric ball of radius r must fit in the Euclidean ball of
        radius cover * r."""
        for metric in (MANHATTAN, CHEBYSHEV):
            for d in (2, 5, 9):
                cover = metric.l2_cover_factor(d)
                x = rng.normal(size=(200, d))
                m_dist = (
                    np.abs(x).sum(axis=1)
                    if metric is MANHATTAN
                    else np.abs(x).max(axis=1)
                )
                l2 = np.sqrt((x * x).sum(axis=1))
                mask = m_dist < 1.0
                assert (l2[mask] <= cover + 1e-12).all()

    def test_get_metric_resolution(self):
        assert get_metric("euclidean") is EUCLIDEAN
        assert get_metric("l1") is MANHATTAN
        assert get_metric("cityblock") is MANHATTAN
        assert get_metric("linf") is CHEBYSHEV
        assert get_metric(CHEBYSHEV) is CHEBYSHEV
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("cosine")


class TestMetricExactness:
    @pytest.mark.parametrize("metric_name", ["manhattan", "chebyshev"])
    @pytest.mark.parametrize("aux_index", ["cached", "flat"])
    def test_mu_dbscan_exact_under_metric(self, metric_name, aux_index):
        pts = blobs_with_noise(350, 3, 4, noise_fraction=0.3, seed=70)
        ref = brute_dbscan(pts, 0.15, 5, metric=metric_name)
        res = mu_dbscan(pts, 0.15, 5, metric=metric_name, aux_index=aux_index)
        report = check_exact(res, ref, points=pts, metric=metric_name)
        assert report.ok, f"{metric_name}/{aux_index}: {report}"

    @pytest.mark.parametrize("metric_name", ["manhattan", "chebyshev"])
    def test_definition_holds_under_metric(self, metric_name):
        pts = blobs_with_noise(250, 2, 3, noise_fraction=0.25, seed=71)
        res = mu_dbscan(pts, 0.1, 4, metric=metric_name)
        assert validate_definition(pts, res, metric=metric_name).ok

    def test_metrics_give_different_clusterings(self):
        """Sanity: the metric parameter actually changes the geometry."""
        rng = np.random.default_rng(72)
        pts = rng.uniform(0, 1, size=(300, 2))
        a = brute_dbscan(pts, 0.07, 5, metric="euclidean")
        b = brute_dbscan(pts, 0.07, 5, metric="chebyshev")
        # the L-inf ball is strictly larger: never fewer neighbors
        assert b.n_core >= a.n_core
        assert b.n_core > a.n_core  # with 300 uniform points, strictly

    def test_metric_recorded_in_extras(self):
        pts = blobs_with_noise(120, 2, 2, seed=73)
        res = mu_dbscan(pts, 0.1, 4, metric="manhattan")
        assert res.extras["metric"] == "manhattan"

    def test_rtree_aux_mode_rejects_non_euclidean(self):
        pts = blobs_with_noise(50, 2, 2, seed=74)
        with pytest.raises(ValueError, match="euclidean metric only"):
            mu_dbscan(pts, 0.1, 4, metric="manhattan", aux_index="rtree")
        # the reference pipeline wraps its MCs with MuRTree.from_arrays
        from repro.validation.reference import reference_mu_dbscan

        with pytest.raises(ValueError, match="euclidean metric only"):
            reference_mu_dbscan(pts, 0.1, 4, metric="manhattan", aux_index="rtree")

    def test_estimator_accepts_metric(self):
        from repro import MuDBSCAN

        pts = blobs_with_noise(120, 2, 2, seed=75)
        est = MuDBSCAN(eps=0.1, min_pts=4, metric="chebyshev").fit(pts)
        assert est.result_.extras["metric"] == "chebyshev"
