"""Tests for the true-streaming μDBSCAN engine.

Coverage, per docs/STREAMING.md:

* insert-only parity against the batch algorithms after every batch;
* windowed parity (ARI=1.0 vs a batch refit of the live window) under
  mixed insert/delete/expiry sequences — including a sweep over every
  registry dataset × every metric;
* hypothesis-driven adversarial updates around the ε boundary;
* compaction idempotence, the sub-linear update-cost contract and
  the label-id bound;
* the ``repro.api.stream`` facade, the deprecated ``insert``/``cluster``
  shims, and the serving :class:`StreamingEngine` integration.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import brute_dbscan, check_exact, mu_dbscan, stream
from repro._compat import ReproDeprecationWarning, reset_warned
from repro.data.registry import dataset_names, load_dataset
from repro.data.synthetic import blobs_with_noise, uniform_box
from repro.streaming import IncrementalMuDBSCAN, StreamingMuDBSCAN
from repro.validation.exactness import check_window_parity

METRICS = ("euclidean", "manhattan", "chebyshev")


def assert_parity(clusterer: StreamingMuDBSCAN, context: str = "") -> None:
    report = check_window_parity(
        clusterer.result(), clusterer.window_points, metric=clusterer.metric
    )
    assert report.ok, f"{context}: ari={report.ari} exact={report.exact}"


class TestInsertExactness:
    def test_exact_after_every_batch(self):
        pts = blobs_with_noise(600, 2, 5, noise_fraction=0.3, seed=55)
        inc = StreamingMuDBSCAN(eps=0.07, min_pts=5, dim=2)
        for start in range(0, 600, 150):
            inc.partial_fit(pts[start : start + 150])
            so_far = pts[: start + 150]
            report = check_exact(
                inc.result(), brute_dbscan(so_far, 0.07, 5), points=so_far
            )
            assert report.ok, f"after {start + 150}: {report}"

    def test_single_batch_equals_batch_run(self):
        pts = blobs_with_noise(400, 3, 4, noise_fraction=0.2, seed=56)
        inc = StreamingMuDBSCAN(eps=0.12, min_pts=5)
        inc.partial_fit(pts)
        assert check_exact(inc.result(), mu_dbscan(pts, 0.12, 5), points=pts).ok

    def test_point_at_a_time(self):
        pts = uniform_box(60, 2, seed=57)
        inc = StreamingMuDBSCAN(eps=0.15, min_pts=3, dim=2)
        for p in pts:
            inc.partial_fit(p)
        assert check_exact(inc.result(), brute_dbscan(pts, 0.15, 3), points=pts).ok

    def test_growth_promotes_noise(self):
        """New points can turn noise into borders/cores across batches."""
        seed_pts = np.array([[0.0, 0.0], [0.05, 0.0]])
        densifier = np.random.default_rng(59).normal(0.0, 0.01, (10, 2))
        inc = StreamingMuDBSCAN(eps=0.1, min_pts=5, dim=2)
        inc.partial_fit(seed_pts)
        assert inc.n_clusters_ == 0  # everything noise
        inc.partial_fit(densifier)
        assert inc.n_clusters_ == 1
        assert inc.labels_[0] >= 0  # the old point joined the cluster

    def test_result_is_stable_between_updates(self):
        pts = blobs_with_noise(200, 2, 3, noise_fraction=0.2, seed=58)
        inc = StreamingMuDBSCAN(eps=0.1, min_pts=4, dim=2)
        inc.partial_fit(pts)
        np.testing.assert_array_equal(inc.result().labels, inc.result().labels)

    def test_validation_errors(self):
        inc = StreamingMuDBSCAN(eps=0.1, min_pts=3, dim=2)
        with pytest.raises(ValueError, match="batch"):
            inc.partial_fit(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="dim"):
            StreamingMuDBSCAN(eps=0.1, min_pts=3, dim=0)
        with pytest.raises(ValueError, match="window"):
            StreamingMuDBSCAN(eps=0.1, min_pts=3, window=0)
        with pytest.raises(ValueError, match="builder_block_size"):
            StreamingMuDBSCAN(eps=0.1, min_pts=3, builder_block_size=0)
        with pytest.raises(TypeError, match="builder"):
            StreamingMuDBSCAN(eps=0.1, min_pts=3, builder="scan")

    def test_seed_requires_empty_stream(self):
        pts = uniform_box(50, 2, seed=60)
        inc = StreamingMuDBSCAN(eps=0.1, min_pts=3, dim=2)
        inc.partial_fit(pts[:10])
        with pytest.raises(RuntimeError, match="empty stream"):
            inc.seed(pts[10:])

    def test_builder_threads_through_post_seed_inserts(self):
        pts = blobs_with_noise(300, 2, 4, noise_fraction=0.2, seed=61)
        for block in (1, 64):
            inc = StreamingMuDBSCAN(eps=0.08, min_pts=5, builder_block_size=block)
            inc.partial_fit(pts[:150])
            inc.partial_fit(pts[150:])
            assert inc.builder_block_size == block
            assert check_exact(
                inc.result(), brute_dbscan(pts, 0.08, 5), points=pts
            ).ok


class TestDeleteExpiry:
    def test_mixed_updates_keep_window_parity(self):
        rng = np.random.default_rng(70)
        pts = blobs_with_noise(500, 2, 4, noise_fraction=0.25, seed=70)
        inc = StreamingMuDBSCAN(eps=0.08, min_pts=5, dim=2)
        inc.partial_fit(pts[:200])
        for step, lo in enumerate(range(200, 500, 100)):
            inc.partial_fit(pts[lo : lo + 100])
            alive = inc.ids_
            victims = rng.choice(alive, size=30, replace=False)
            inc.delete(victims)
            assert_parity(inc, f"step {step}")

    def test_bridge_deletion_splits_cluster(self):
        rng = np.random.default_rng(71)
        left = rng.normal([0.0, 0.0], 0.05, (40, 2))
        right = rng.normal([1.0, 0.0], 0.05, (40, 2))
        bridge = np.stack(
            [np.linspace(0.1, 0.9, 15), np.zeros(15)], axis=1
        ) + rng.normal(0, 0.005, (15, 2))
        inc = StreamingMuDBSCAN(eps=0.12, min_pts=4, dim=2)
        inc.partial_fit(np.vstack([left, right, bridge]))
        assert inc.n_clusters_ == 1
        inc.delete(np.arange(80, 95))  # remove the bridge
        assert inc.n_clusters_ == 2
        assert_parity(inc, "post-split")

    def test_window_expiry_bounds_buffer_and_stays_exact(self):
        pts = blobs_with_noise(600, 2, 4, noise_fraction=0.2, seed=72)
        inc = StreamingMuDBSCAN(eps=0.08, min_pts=5, window=250)
        total_expired = 0
        for lo in range(0, 600, 150):
            inc.partial_fit(pts[lo : lo + 150])
            assert inc.n_live <= 250
            total_expired += inc.last_update_stats["expired"]
            assert_parity(inc, f"after {lo + 150}")
        assert total_expired == 350
        assert inc.n_expired_total == 350

    def test_explicit_expire(self):
        pts = uniform_box(100, 2, seed=73)
        inc = StreamingMuDBSCAN(eps=0.15, min_pts=4, dim=2)
        inc.partial_fit(pts)
        inc.expire(40)
        assert inc.n_live == 60
        # oldest rows went first
        assert inc.ids_.min() == 40
        assert_parity(inc, "post-expire")

    def test_delete_validation(self):
        pts = uniform_box(30, 2, seed=74)
        inc = StreamingMuDBSCAN(eps=0.1, min_pts=3, dim=2)
        inc.partial_fit(pts)
        with pytest.raises(ValueError, match="ids"):
            inc.delete([99])
        with pytest.raises(ValueError, match="duplicates"):
            inc.delete([3, 3])
        inc.delete([5])
        with pytest.raises(ValueError, match="ids"):
            inc.delete([5])  # already gone

    def test_delete_everything_then_refill(self):
        pts = uniform_box(60, 2, seed=75)
        inc = StreamingMuDBSCAN(eps=0.15, min_pts=4, dim=2)
        inc.partial_fit(pts[:40])
        inc.delete(inc.ids_)
        assert inc.n_live == 0
        assert inc.labels_.shape == (0,)
        inc.partial_fit(pts[40:])
        assert_parity(inc, "refill")


class TestRegistryParity:
    """Windowed exactness over every registry dataset × every metric."""

    SCALE = 0.04

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("name", dataset_names())
    def test_windowed_parity(self, name, metric):
        pts, spec = load_dataset(name, scale=self.SCALE, seed=0)
        rng = np.random.default_rng(17)
        n = pts.shape[0]
        window = max(40, int(0.7 * n))
        inc = StreamingMuDBSCAN(
            eps=spec.eps, min_pts=spec.min_pts, metric=metric, window=window
        )
        third = max(1, n // 3)
        inc.partial_fit(pts[:third])
        inc.partial_fit(pts[third : 2 * third])
        alive = inc.ids_
        k = max(1, alive.shape[0] // 10)
        inc.delete(rng.choice(alive, size=k, replace=False))
        inc.partial_fit(pts[2 * third :])
        assert_parity(inc, f"{name}/{metric}")


@st.composite
def boundary_stream(draw):
    """Points on a grid whose spacing makes distances land ON ε.

    With eps=1.0 and integer coordinates, many pair distances are
    exactly 1.0 — the strict ``< eps`` boundary.  A single drifted or
    duplicated point flips core counts, so insert/delete order stresses
    every tie-break in the maintenance path.
    """
    n = draw(st.integers(min_value=8, max_value=24))
    coords = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=n,
            max_size=n,
        )
    )
    n_del = draw(st.integers(min_value=0, max_value=n // 2))
    order = draw(st.permutations(list(range(n))))
    return np.array(coords, dtype=np.float64), order[:n_del]


class TestAdversarialBoundary:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(boundary_stream())
    def test_eps_boundary_updates_stay_exact(self, case):
        pts, delete_order = case
        inc = StreamingMuDBSCAN(eps=1.0, min_pts=3, dim=2)
        half = pts.shape[0] // 2
        inc.partial_fit(pts[:half])
        inc.partial_fit(pts[half:])
        for row in delete_order:
            inc.delete([int(row)])
        assert_parity(inc, "boundary")

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=6,
            max_size=20,
        )
    )
    def test_1d_line_embedded_in_2d(self, xs):
        """Collinear points: every neighborhood is an interval, so any
        miscount shifts a core flag detectably."""
        pts = np.stack([np.asarray(xs), np.zeros(len(xs))], axis=1)
        inc = StreamingMuDBSCAN(eps=0.5, min_pts=3, dim=2)
        inc.partial_fit(pts)
        inc.delete([0])
        assert_parity(inc, "line")


class TestCompaction:
    def _dirty_stream(self):
        pts = blobs_with_noise(400, 2, 4, noise_fraction=0.25, seed=80)
        rng = np.random.default_rng(80)
        inc = StreamingMuDBSCAN(eps=0.08, min_pts=5, dim=2)
        inc.partial_fit(pts[:300])
        # kill a swath of MC centers to dirty the partition
        centers = [
            r for r, a in zip(inc._center_rows, inc._mc_alive) if a and inc._alive[r]
        ]
        inc.delete(np.array(sorted(centers[::2]), dtype=np.int64))
        inc.partial_fit(pts[300:])
        return inc, rng

    def test_compaction_is_idempotent(self):
        inc, _ = self._dirty_stream()
        labels_before = inc.labels_.copy()
        inc.compact()
        labels_mid = inc.labels_.copy()
        second = inc.compact()
        np.testing.assert_array_equal(labels_before, labels_mid)
        np.testing.assert_array_equal(labels_mid, inc.labels_)
        assert second == 0, "second compaction must find nothing to dissolve"
        assert inc.n_degenerate_mcs == 0

    def test_forced_full_rebuild_preserves_labels(self):
        """Theorem 1: labels are partition-independent, so even a full
        MC rebuild (force=True) must not move a single label."""
        inc, _ = self._dirty_stream()
        labels_before = inc.labels_.copy()
        assert inc.compact(force=True) > 0
        np.testing.assert_array_equal(labels_before, inc.labels_)
        assert_parity(inc, "post-forced-rebuild")

    def test_compaction_preserves_parity(self):
        inc, _ = self._dirty_stream()
        inc.compact(force=True)
        assert_parity(inc, "post-compact")
        assert inc.n_degenerate_mcs == 0

    def test_auto_compaction_dirty_fraction_trigger(self):
        pts = blobs_with_noise(300, 2, 3, noise_fraction=0.2, seed=81)
        inc = StreamingMuDBSCAN(
            eps=0.08, min_pts=4, dim=2, compact_dirty_fraction=0.01
        )
        inc.partial_fit(pts)
        centers = [
            r for r, a in zip(inc._center_rows, inc._mc_alive) if a and inc._alive[r]
        ]
        inc.delete(np.array(sorted(centers[:10]), dtype=np.int64))
        assert inc.compactions_total >= 1
        assert_parity(inc, "auto-compact")

    def test_compact_every_trigger(self):
        pts = uniform_box(200, 2, seed=82)
        inc = StreamingMuDBSCAN(
            eps=0.1, min_pts=3, compact_every=3, compact_dirty_fraction=1.0
        )
        inc.partial_fit(pts[:100])
        # dirty the partition: kill one live MC center
        center = next(
            r for r, a in zip(inc._center_rows, inc._mc_alive) if a and inc._alive[r]
        )
        inc.delete([center])  # update 2 of 3: dirty fraction won't fire
        assert inc.compactions_total == 0
        inc.partial_fit(pts[100:150])  # third update triggers the sweep
        assert inc.compactions_total == 1
        assert inc.n_degenerate_mcs == 0
        assert_parity(inc, "compact-every")


class TestSubLinearCost:
    def test_localized_insert_touches_a_fraction(self):
        """An insert far from the bulk must not re-cluster the buffer."""
        rng = np.random.default_rng(90)
        bulk = rng.normal(0.0, 0.5, (2000, 2))
        inc = StreamingMuDBSCAN(eps=0.08, min_pts=5, dim=2)
        inc.partial_fit(bulk)
        far = rng.normal(50.0, 0.01, (5, 2))
        inc.partial_fit(far)
        stats = inc.last_update_stats
        assert stats["touched_rows"] <= 10, stats
        # neighborhood probes scale with the batch, not the buffer
        assert stats["queries"] <= 50, stats

    def test_small_delete_is_local(self):
        rng = np.random.default_rng(91)
        pts = blobs_with_noise(1500, 2, 5, noise_fraction=0.2, seed=91)
        inc = StreamingMuDBSCAN(eps=0.06, min_pts=5, dim=2)
        inc.partial_fit(pts)
        victims = rng.choice(inc.ids_, size=10, replace=False)
        inc.delete(victims)
        stats = inc.last_update_stats
        # probes for the 10 victims + the repair region, not all 1500 rows
        assert stats["queries"] < inc.n_live, stats


class TestBoundedLabelIds:
    def test_label_ids_follow_the_window(self):
        """Every promotion and repair mints label ids; they are
        renumbered whenever they outnumber twice the live cores, so an
        8,000-point windowed stream ends with ids for its window only."""
        rng = np.random.default_rng(92)
        idx = np.arange(8000)
        x = idx * 0.0006 + (idx // 600) * 0.5 + rng.normal(0, 0.02, idx.size)
        pts = np.column_stack([x, rng.normal(0, 0.06, (idx.size, 2))])
        inc = StreamingMuDBSCAN(eps=0.08, min_pts=20, window=2000)
        minted = 0
        for lo in range(0, pts.shape[0], 500):
            inc.partial_fit(pts[lo : lo + 500])
            minted += inc.last_update_stats["promotions"]
            assert len(inc._label_uf) <= 2 * np.count_nonzero(inc.core_sample_mask_)
            inc.delete(rng.choice(inc.ids_, size=25, replace=False))
            minted += inc.last_update_stats["repaired_rows"]
            assert len(inc._label_uf) <= 2 * np.count_nonzero(inc.core_sample_mask_)
        assert minted > 2 * len(inc._label_uf)  # renumbering did happen
        assert_parity(inc, "after 8,000 points")


class TestStreamingAPI:
    def test_stream_facade(self):
        pts = uniform_box(120, 2, seed=100)
        c = stream(eps=0.15, min_pts=4, window=200, metric="manhattan")
        assert isinstance(c, StreamingMuDBSCAN)
        c.partial_fit(pts)
        assert c.labels_.shape == (120,)
        assert c.ids_.shape == (120,)
        assert c.core_sample_mask_.shape == (120,)
        assert c.n_clusters_ >= 0
        with pytest.raises(ValueError, match="engine"):
            stream(0.1, 4, engine="exact")

    def test_min_samples_alias_warns(self):
        reset_warned()
        with pytest.warns(ReproDeprecationWarning, match="min_samples"):
            c = stream(0.1, min_samples=4)
        assert c.params.min_pts == 4
        with pytest.warns(ReproDeprecationWarning, match="min_samples"):
            StreamingMuDBSCAN(eps=0.1, min_samples=4)

    def test_deprecated_insert_cluster_shims(self):
        reset_warned()
        pts = uniform_box(80, 2, seed=101)
        inc = IncrementalMuDBSCAN(eps=0.15, min_pts=3, dim=2)
        with pytest.warns(ReproDeprecationWarning, match="partial_fit"):
            inc.insert(pts)
        with pytest.warns(ReproDeprecationWarning, match="result"):
            res = inc.cluster()
        assert check_exact(res, brute_dbscan(pts, 0.15, 3), points=pts).ok
        # second call: already warned this process, stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            inc.insert(pts[:1])
            inc.cluster()

    def test_result_provenance(self):
        from repro.core.extras import ExtraKeys

        pts = uniform_box(100, 2, seed=102)
        inc = StreamingMuDBSCAN(eps=0.15, min_pts=4, window=150)
        inc.partial_fit(pts)
        res = inc.result()
        assert res.algorithm == "streaming_mu_dbscan"
        assert res.extras[ExtraKeys.ENGINE] == "streaming"
        assert res.extras[ExtraKeys.ENGINE_OPTIONS]["window"] == 150
        kinds = res.extras[ExtraKeys.MC_KIND_COUNTS]
        assert sum(kinds.values()) == res.extras[ExtraKeys.N_MICRO_CLUSTERS]

    def test_streaming_spans_are_labelled(self):
        from repro.observability import Tracer

        pts = uniform_box(90, 2, seed=103)
        tracer = Tracer()
        with tracer.activate():
            inc = StreamingMuDBSCAN(eps=0.15, min_pts=4, dim=2)
            inc.partial_fit(pts)
            inc.delete([0])
        spans = {s["name"]: s for s in tracer.finished()}
        assert spans["stream_partial_fit"]["attrs"]["engine"] == "streaming"
        assert spans["stream_delete"]["attrs"]["engine"] == "streaming"


class TestServingIntegration:
    def _engine(self, registry=None, **kw):
        from repro.serving import StreamingEngine

        pts = blobs_with_noise(300, 2, 4, noise_fraction=0.2, seed=110)
        s = StreamingMuDBSCAN(eps=0.08, min_pts=5, window=400)
        s.partial_fit(pts)
        return StreamingEngine(s, registry=registry, **kw), pts

    def test_refresh_is_in_place(self):
        eng, pts = self._engine()
        model = eng.model
        v0 = model.version_token()
        eng.apply(inserts=pts[:50] + 0.01)
        assert eng.model is model, "no swap: same FittedModel object"
        assert model.version_token() != v0

    def test_refresh_drops_the_routing_table(self):
        from repro.serving import brute_predict, predict_model

        eng, pts = self._engine(refresh_every=100)
        model = eng.model
        predict_model(model, pts[:16])  # builds the routing table
        assert model._route_table is not None
        old_centers = {tuple(c) for c in model.points[model.center_rows]}
        # a dense clump far from the data founds new micro-clusters, and
        # deleting a third of the live points empties old ones
        clump = 3.0 + np.random.default_rng(7).normal(0.0, 0.01, (40, 2))
        eng.apply(inserts=clump, deletes=eng.stream.ids_[::3])
        eng.refresh()
        new_centers = {tuple(c) for c in model.points[model.center_rows]}
        assert new_centers - old_centers and old_centers - new_centers
        queries = np.vstack([clump[:10] + 0.001, pts[:30] + 0.002])
        got = predict_model(model, queries)
        want = brute_predict(
            model.points, model.labels, model.core_mask, 0.08, 5, queries
        )
        assert (want.labels[:10] >= 0).all()  # the clump is a cluster now
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.n_neighbors, want.n_neighbors)
        np.testing.assert_array_equal(got.nearest_core, want.nearest_core)

    def test_staleness_then_refresh(self):
        eng, pts = self._engine(refresh_every=3)
        v0 = eng.model.version_token()
        eng.apply(inserts=pts[:10] + 0.02)
        assert eng.model.version_token() == v0  # still stale
        assert eng.stats()["staleness_updates"] == 1
        eng.apply(deletes=eng.stream.ids_[:5])
        eng.apply(inserts=pts[10:20] + 0.03)  # third batch triggers sync
        assert eng.stats()["staleness_updates"] == 0
        assert eng.model.version_token() != v0

    def test_serves_queries_mid_stream(self):
        from repro.serving import QueryEngine

        eng, pts = self._engine()
        qe = QueryEngine(eng.model)
        before = qe.model_version
        eng.apply(inserts=pts[:30] + 0.05)
        rows = qe.predict(pts[:8])
        assert len(rows) == 8
        assert qe.model_version != before

    def test_metrics_surface(self):
        from repro.observability.prometheus import render_prometheus
        from repro.observability.registry import MetricsRegistry

        reg = MetricsRegistry(enabled=True)
        eng, pts = self._engine(registry=reg)
        eng.apply(inserts=pts[:20] + 0.01, deletes=eng.stream.ids_[:10])
        report = eng.check_parity()
        assert report.ok
        text = render_prometheus(reg)
        for family in (
            "mudbscan_stream_updates_total",
            "mudbscan_stream_live_points",
            "mudbscan_stream_staleness_updates",
            "mudbscan_stream_staleness_seconds",
            "mudbscan_stream_refreshes_total",
            "mudbscan_stream_parity_ari",
        ):
            assert family in text, family
        assert 'kind="insert"' in text and 'kind="delete"' in text

    def test_fitted_model_matches_batch_refit(self):
        from repro.serving import predict_model
        from repro.validation.exactness import canonical_labels

        pts = blobs_with_noise(250, 2, 3, noise_fraction=0.25, seed=111)
        s = StreamingMuDBSCAN(eps=0.09, min_pts=5, dim=2)
        s.partial_fit(pts)
        s.delete(s.ids_[::7])
        window = s.window_points
        model = s.to_fitted_model()
        ref = mu_dbscan(window, 0.09, 5)
        lhs = canonical_labels(model.labels, model.core_mask, window, 0.09)
        rhs = canonical_labels(ref.labels, ref.core_mask, window, 0.09)
        np.testing.assert_array_equal(lhs, rhs)
        # and the artifact serves predictions
        res = predict_model(model, window[:5])
        assert len(res) == 5

    def test_fanout_to_fleet(self):
        from repro.serving.fleet import Fleet, FleetConfig

        eng, pts = self._engine(refresh_every=10)
        eng.apply(inserts=pts[:40] + 0.04)
        with Fleet(eng.model, FleetConfig(n_workers=2, router="kd")) as fleet:
            report = eng.fanout(fleet)
            assert eng.stats()["staleness_updates"] == 0
            assert report is not None
            assert fleet.version == eng.model.version_token()
