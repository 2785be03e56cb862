"""End-to-end tests of μDBSCAN — Theorem 1's guarantees, executable."""

import functools

import numpy as np
import pytest

from repro import MuDBSCAN, brute_dbscan, check_exact, mu_dbscan
from repro.core.params import DBSCANParams
from repro.data.registry import dataset_names, load_dataset
from repro.data.synthetic import blobs_with_noise, gaussian_blobs, uniform_box


class TestExactness:
    """The paper's central claim: μDBSCAN == classical DBSCAN."""

    @pytest.mark.parametrize(
        "n,d,eps,min_pts,seed",
        [
            (300, 2, 0.08, 5, 0),
            (300, 2, 0.15, 3, 1),
            (400, 3, 0.2, 6, 2),
            (250, 4, 0.35, 4, 3),
            (200, 1, 0.05, 5, 4),
        ],
    )
    def test_exact_on_blob_mixtures(self, n, d, eps, min_pts, seed):
        pts = blobs_with_noise(n, d, 4, noise_fraction=0.3, seed=seed)
        ref = brute_dbscan(pts, eps, min_pts)
        res = mu_dbscan(pts, eps, min_pts)
        report = check_exact(res, ref, points=pts)
        assert report.ok, str(report)

    def test_exact_on_pure_noise(self):
        pts = uniform_box(200, 3, seed=9)
        ref = brute_dbscan(pts, 0.05, 5)
        res = mu_dbscan(pts, 0.05, 5)
        assert check_exact(res, ref, points=pts).ok
        assert res.n_noise > 0

    def test_exact_on_single_dense_blob(self):
        pts = gaussian_blobs(200, 2, 1, spread=0.01, seed=5)
        ref = brute_dbscan(pts, 0.1, 5)
        res = mu_dbscan(pts, 0.1, 5)
        assert check_exact(res, ref, points=pts).ok
        assert res.n_clusters == 1

    def test_exact_on_filament(self, line_points):
        ref = brute_dbscan(line_points, 0.03, 4)
        res = mu_dbscan(line_points, 0.03, 4)
        assert check_exact(res, ref, points=line_points).ok

    def test_exact_with_duplicates(self, rng):
        base = rng.random((150, 2))
        pts = np.vstack([base, base[:30]])
        ref = brute_dbscan(pts, 0.1, 4)
        res = mu_dbscan(pts, 0.1, 4)
        assert check_exact(res, ref, points=pts).ok

    def test_exact_min_pts_one(self, small_blobs):
        # MinPts=1: every point is core, no noise
        ref = brute_dbscan(small_blobs, 0.05, 1)
        res = mu_dbscan(small_blobs, 0.05, 1)
        assert check_exact(res, ref, points=small_blobs).ok
        assert res.n_noise == 0
        assert res.core_mask.all()

    def test_exact_huge_eps_one_cluster(self, small_blobs):
        ref = brute_dbscan(small_blobs, 10.0, 3)
        res = mu_dbscan(small_blobs, 10.0, 3)
        assert check_exact(res, ref, points=small_blobs).ok
        assert res.n_clusters == 1

    def test_exact_tiny_eps_all_noise(self, small_blobs):
        ref = brute_dbscan(small_blobs, 1e-9, 3)
        res = mu_dbscan(small_blobs, 1e-9, 3)
        assert check_exact(res, ref, points=small_blobs).ok

    @pytest.mark.parametrize("aux_index", ["flat", "rtree"])
    @pytest.mark.parametrize("filtration", [True, False])
    @pytest.mark.parametrize("defer_2eps", [True, False])
    @pytest.mark.parametrize("dynamic_wndq", [True, False])
    def test_exact_under_all_ablations(
        self, small_blobs, aux_index, filtration, defer_2eps, dynamic_wndq
    ):
        ref = brute_dbscan(small_blobs, 0.08, 5)
        res = mu_dbscan(
            small_blobs, 0.08, 5,
            aux_index=aux_index, filtration=filtration,
            defer_2eps=defer_2eps, dynamic_wndq=dynamic_wndq,
        )
        assert check_exact(res, ref, points=small_blobs).ok


#: registry scale of the oracle sweep (a few hundred points per set)
_SWEEP_SCALE = 0.06
_SWEEP_CASES = [
    (name, metric, aux_index)
    for name in dataset_names()
    for metric in ("euclidean", "manhattan", "chebyshev")
    for aux_index in ("cached", "flat")
] + [(name, "euclidean", "rtree") for name in dataset_names()]


@functools.lru_cache(maxsize=None)
def _registry_oracle(name, metric):
    pts, spec = load_dataset(name, scale=_SWEEP_SCALE)
    return pts, spec, brute_dbscan(pts, spec.eps, spec.min_pts, metric=metric)


class TestRegistryOracleSweep:
    """Every registry set under every metric and aux mode, against the
    brute-force oracle itself (the sibling-parity suites compare fit
    paths with each other)."""

    @pytest.mark.parametrize("name,metric,aux_index", _SWEEP_CASES)
    def test_exact_against_brute(self, name, metric, aux_index):
        pts, spec, ref = _registry_oracle(name, metric)
        res = mu_dbscan(pts, spec.eps, spec.min_pts, metric=metric, aux_index=aux_index)
        np.testing.assert_array_equal(res.core_mask, ref.core_mask)
        # the border check must measure with the clustering's metric
        report = check_exact(res, ref, points=pts, metric=metric)
        assert report.ok, str(report)


class TestQuerySavings:
    """Table II's '% queries saved' mechanism."""

    def test_queries_saved_on_dense_data(self):
        pts = gaussian_blobs(500, 2, 3, spread=0.02, seed=1)
        res = mu_dbscan(pts, 0.1, 5)
        assert res.counters.queries_saved > 0
        assert res.counters.queries_run + res.counters.queries_saved == 500
        assert res.counters.query_save_fraction > 0.3

    def test_dynamic_wndq_saves_more(self):
        pts = gaussian_blobs(500, 2, 3, spread=0.02, seed=1)
        with_dyn = mu_dbscan(pts, 0.1, 5, dynamic_wndq=True)
        without = mu_dbscan(pts, 0.1, 5, dynamic_wndq=False)
        assert (
            with_dyn.counters.queries_saved >= without.counters.queries_saved
        )

    def test_no_savings_on_sparse_noise(self):
        pts = uniform_box(200, 3, seed=2)
        res = mu_dbscan(pts, 0.01, 5)
        # nothing is dense enough for wndq-cores
        assert res.counters.query_save_fraction == pytest.approx(0.0)

    def test_wndq_cores_are_actually_core(self, medium_blobs_3d):
        res = mu_dbscan(medium_blobs_3d, 0.15, 5)
        assert res.extras["n_wndq_core"] <= res.n_core


class TestResultRecord:
    def test_extras_populated(self, small_blobs):
        res = mu_dbscan(small_blobs, 0.08, 5)
        assert res.extras["n_micro_clusters"] > 0
        assert res.extras["avg_mc_size"] > 0
        kinds = res.extras["mc_kind_counts"]
        assert set(kinds) == {"DMC", "CMC", "SMC"}
        assert sum(kinds.values()) == res.extras["n_micro_clusters"]

    def test_phase_timers_cover_all_steps(self, small_blobs):
        res = mu_dbscan(small_blobs, 0.08, 5)
        split = res.timers.as_dict()
        assert set(split) == {
            "tree_construction",
            "finding_reachable_groups",
            "clustering",
            "post_processing",
        }
        assert all(v >= 0 for v in split.values())

    def test_labels_shape_and_range(self, small_blobs):
        res = mu_dbscan(small_blobs, 0.08, 5)
        assert res.labels.shape == (small_blobs.shape[0],)
        assert res.labels.min() >= -1
        if res.n_clusters:
            assert set(np.unique(res.labels[res.labels >= 0])) == set(
                range(res.n_clusters)
            )


class TestEstimatorAPI:
    def test_fit_predict_roundtrip(self, small_blobs):
        est = MuDBSCAN(eps=0.08, min_pts=5)
        labels = est.fit_predict(small_blobs)
        np.testing.assert_array_equal(labels, est.labels_)
        assert est.n_clusters_ == est.result_.n_clusters
        assert est.core_sample_mask_.dtype == bool

    def test_unfitted_access_raises(self):
        est = MuDBSCAN(eps=0.1, min_pts=5)
        with pytest.raises(RuntimeError, match="fit"):
            _ = est.labels_

    def test_bad_params_fail_at_construction(self):
        with pytest.raises(ValueError, match="eps"):
            MuDBSCAN(eps=0.0, min_pts=5)
        with pytest.raises(ValueError, match="min_pts"):
            MuDBSCAN(eps=1.0, min_pts=0)


class TestParams:
    def test_eps_sq_helpers(self):
        p = DBSCANParams(eps=2.0, min_pts=3)
        assert p.eps_sq == 4.0
        assert p.half_eps_sq == 1.0

    def test_frozen(self):
        p = DBSCANParams(eps=1.0, min_pts=2)
        with pytest.raises(AttributeError):
            p.eps = 2.0

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            DBSCANParams(eps=float("nan"), min_pts=3)
