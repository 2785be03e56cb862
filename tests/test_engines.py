"""The tiered-exactness engines behind the ``fit`` facade.

Pins the contract of docs/ENGINES.md: the exact engine is
bit-identical to ``mu_dbscan`` (fingerprint parity over the dataset
registry and every metric), the approximate engines are deterministic
under a fixed seed, every engine's artifact round-trips through
``to_bytes``/``from_bytes`` and predicts without a refit, and the
facade/estimator surfaces (``repro.api.fit``, ``MuDBSCAN``,
``resolve_engine``) agree on spelling and errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import fit
from repro.core.extras import ExtraKeys
from repro.core.mudbscan import MuDBSCAN, mu_dbscan
from repro.data.registry import dataset_names, load_dataset
from repro.engines import (
    ENGINE_TYPES,
    ExactEngine,
    SampledCoreEngine,
    SummaryEngine,
    engine_names,
    resolve_engine,
)
from repro.serving.model import FittedModel, fit_model
from repro.serving.predict import predict_model
from repro.validation.metrics import adjusted_rand_index

ENGINES = ("exact", "sampled", "summary")
METRICS = ("euclidean", "manhattan", "chebyshev")

#: registry sweep scale for parity tests — a few hundred points each
PARITY_SCALE = 0.05


class TestRegistry:
    def test_engine_names(self):
        assert engine_names() == list(ENGINES)
        assert ENGINE_TYPES["exact"] is ExactEngine
        assert ENGINE_TYPES["sampled"] is SampledCoreEngine
        assert ENGINE_TYPES["summary"] is SummaryEngine

    def test_unknown_engine_lists_choices(self, small_blobs):
        with pytest.raises(ValueError, match="exact, sampled, summary"):
            fit(small_blobs, eps=0.08, min_pts=6, engine="aproximate")

    def test_instance_spec_with_option_clash_is_type_error(self):
        engine = SampledCoreEngine(sample_fraction=0.5)
        with pytest.raises(TypeError, match="sample_fraction"):
            resolve_engine(engine, {"sample_fraction": 0.2})

    def test_option_extraction_leaves_fit_opts(self):
        engine, leftovers = resolve_engine(
            "sampled", {"sample_fraction": 0.5, "seed": 3, "block_size": 64}
        )
        assert engine.sample_fraction == 0.5
        assert engine.seed == 3
        assert leftovers == {"block_size": 64}

    def test_preconfigured_instance_passes_through(self, small_blobs):
        engine = SummaryEngine()
        res = fit(small_blobs, eps=0.08, min_pts=6, engine=engine)
        assert res.extras[ExtraKeys.ENGINE] == "summary"


class TestExactParity:
    """``engine="exact"`` is the identity — bit-identical fingerprints."""

    @pytest.mark.parametrize("name", dataset_names())
    def test_registry_fingerprints(self, name):
        pts, spec = load_dataset(name, scale=PARITY_SCALE, seed=0)
        via_engine = fit(pts, spec.eps, spec.min_pts, engine="exact")
        direct = mu_dbscan(pts, spec.eps, spec.min_pts)
        assert via_engine.fingerprint() == direct.fingerprint()
        np.testing.assert_array_equal(via_engine.labels, direct.labels)
        np.testing.assert_array_equal(via_engine.core_mask, direct.core_mask)
        assert via_engine.counters.dist_calcs == direct.counters.dist_calcs
        assert via_engine.algorithm == direct.algorithm == "mu_dbscan"
        assert via_engine.extras == direct.extras

    @pytest.mark.parametrize("metric", METRICS)
    def test_metric_fingerprints(self, small_blobs, metric):
        via_engine = fit(
            small_blobs, eps=0.08, min_pts=6, engine="exact", metric=metric
        )
        direct = mu_dbscan(small_blobs, eps=0.08, min_pts=6, metric=metric)
        np.testing.assert_array_equal(via_engine.labels, direct.labels)
        np.testing.assert_array_equal(via_engine.core_mask, direct.core_mask)
        assert via_engine.counters.dist_calcs == direct.counters.dist_calcs


class TestDeterminism:
    def test_sampled_is_deterministic_under_fixed_seed(self, medium_blobs_3d):
        a = fit(medium_blobs_3d, 0.25, 10, engine="sampled", seed=7)
        b = fit(medium_blobs_3d, 0.25, 10, engine="sampled", seed=7)
        assert a.fingerprint() == b.fingerprint()
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.core_mask, b.core_mask)
        assert a.counters.dist_calcs == b.counters.dist_calcs

    def test_summary_is_deterministic(self, medium_blobs_3d):
        a = fit(medium_blobs_3d, 0.25, 10, engine="summary")
        b = fit(medium_blobs_3d, 0.25, 10, engine="summary")
        assert a.fingerprint() == b.fingerprint()
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.core_mask, b.core_mask)
        assert a.counters.dist_calcs == b.counters.dist_calcs


def _dict_cells_mask(points, eps, fraction, seed):
    """The grid candidate mask from a plain dict of ε-cells: cells in
    order of first appearance, rows ascending in each, one seeded draw
    per cell."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    cells = np.floor((points - points.min(axis=0)) / eps).astype(np.int64)
    for row, key in enumerate(map(tuple, cells.tolist())):
        buckets.setdefault(key, []).append(row)
    rng = np.random.default_rng(seed)
    mask = np.zeros(points.shape[0], dtype=bool)
    for rows in buckets.values():
        bucket = np.asarray(rows, dtype=np.int64)
        k = min(bucket.size, max(1, int(np.ceil(fraction * bucket.size))))
        if k < bucket.size:
            bucket = rng.choice(bucket, size=k, replace=False)
        mask[bucket] = True
    return mask


class TestGridSelection:
    """``selection="grid"`` groups rows by ε-cell with one ``np.unique``
    call; the seeded draw must see the same buckets in the same order."""

    @pytest.mark.parametrize("name", ["3DSRN", "HHP0.5M5D", "FOF28M14D", "MPAGD8M3D"])
    @pytest.mark.parametrize("seed, fraction", [(0, 0.4), (3, 0.1)])
    def test_mask_matches_dict_grouping(self, name, seed, fraction):
        pts, spec = load_dataset(name, scale=0.2, seed=7)
        engine = SampledCoreEngine(sample_fraction=fraction, seed=seed)
        mask = engine._select_candidates(pts, spec.eps)
        assert 0 < mask.sum() < pts.shape[0]
        assert np.array_equal(mask, _dict_cells_mask(pts, spec.eps, fraction, seed))


class TestQuality:
    """Blobs-level sanity floor; the full gate lives in the registry
    sweep (``perf_smoke --quality`` / BENCH_QUALITY.json)."""

    @pytest.mark.parametrize("engine", ["sampled", "summary"])
    def test_ari_floor_vs_exact(self, medium_blobs_3d, engine):
        exact = fit(medium_blobs_3d, 0.25, 10)
        kwargs = {"seed": 0} if engine == "sampled" else {}
        approx = fit(medium_blobs_3d, 0.25, 10, engine=engine, **kwargs)
        assert adjusted_rand_index(exact.labels, approx.labels) >= 0.95

    def test_sampled_cores_are_true_cores(self, medium_blobs_3d):
        exact = fit(medium_blobs_3d, 0.25, 10)
        approx = fit(medium_blobs_3d, 0.25, 10, engine="sampled", seed=0)
        # exact counts on the sampled candidates: no false positives
        assert not np.any(approx.core_mask & ~exact.core_mask)

    def test_engine_extras_provenance(self, medium_blobs_3d):
        sampled = fit(
            medium_blobs_3d, 0.25, 10, engine="sampled",
            sample_fraction=0.5, seed=0,
        )
        assert sampled.extras[ExtraKeys.ENGINE] == "sampled"
        opts = sampled.extras[ExtraKeys.ENGINE_OPTIONS]
        assert opts["sample_fraction"] == 0.5 and opts["seed"] == 0
        assert sampled.extras[ExtraKeys.N_CANDIDATES] > 0
        summary = fit(medium_blobs_3d, 0.25, 10, engine="summary")
        assert summary.extras[ExtraKeys.ENGINE] == "summary"
        assert summary.extras[ExtraKeys.N_CORE_MCS] > 0
        assert ExtraKeys.N_STRAY_CORES in summary.extras


class TestModelRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_save_load_predict(self, medium_blobs_3d, engine):
        kwargs = {"seed": 0} if engine == "sampled" else {}
        model = fit_model(
            medium_blobs_3d, 0.25, 10, engine=engine, **kwargs
        )
        assert model.engine == engine
        loaded = FittedModel.from_bytes(model.to_bytes())
        assert loaded.engine == engine
        np.testing.assert_array_equal(loaded.labels, model.labels)
        assert loaded.meta["engine"] == engine
        # prediction works from the cold artifact, no refit
        res = predict_model(loaded, medium_blobs_3d[:16])
        assert res.labels.shape == (16,)
        if engine == "exact":
            np.testing.assert_array_equal(res.labels, model.labels[:16])
        else:
            # approximate engines mark fewer provable cores, so predict
            # may demote a fit-border row to noise — but never invent a
            # different cluster
            hit = res.labels >= 0
            np.testing.assert_array_equal(
                res.labels[hit], model.labels[:16][hit]
            )

    def test_exact_model_algorithm_unchanged(self, medium_blobs_3d):
        via_engine = fit_model(medium_blobs_3d, 0.25, 10, engine="exact")
        direct = fit_model(medium_blobs_3d, 0.25, 10)
        assert via_engine.algorithm == direct.algorithm == "mu_dbscan"
        np.testing.assert_array_equal(via_engine.labels, direct.labels)


class TestEstimator:
    def test_get_params_round_trip(self, small_blobs):
        est = MuDBSCAN(
            eps=0.08, min_pts=6, engine="sampled",
            engine_options={"sample_fraction": 0.5, "seed": 0},
        )
        clone = MuDBSCAN(**est.get_params())
        assert clone.get_params() == est.get_params()
        a = est.fit_predict(small_blobs)
        b = clone.fit_predict(small_blobs)
        np.testing.assert_array_equal(a, b)

    def test_repr_shows_non_defaults_only(self):
        plain = repr(MuDBSCAN(eps=0.08, min_pts=6))
        assert plain == "MuDBSCAN(eps=0.08, min_pts=6)"
        tiered = repr(MuDBSCAN(eps=0.08, min_pts=6, engine="summary"))
        assert "engine='summary'" in tiered
        assert "block_size" not in tiered

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MuDBSCAN(eps=0.1, min_pts=5, engine="fast")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fit_attributes_per_engine(self, small_blobs, engine):
        opts = {"seed": 0} if engine == "sampled" else {}
        est = MuDBSCAN(eps=0.08, min_pts=6, engine=engine, engine_options=opts)
        est.fit(small_blobs)
        assert est.labels_.shape == (small_blobs.shape[0],)
        assert est.core_sample_mask_.dtype == bool
        assert est.n_clusters_ >= 1
