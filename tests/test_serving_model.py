"""FittedModel artifact: round-trips, rebuild guarantees, corruption."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mudbscan import mu_dbscan
from repro.serving.model import (
    FORMAT_VERSION,
    MAGIC,
    FittedModel,
    ModelFormatError,
    fit_model,
    load_model,
    save_model,
)
from repro.serving.predict import brute_predict, predict_model


def _assert_models_equal(a: FittedModel, b: FittedModel) -> None:
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.core_mask, b.core_mask)
    np.testing.assert_array_equal(a.point_mc, b.point_mc)
    np.testing.assert_array_equal(a.center_rows, b.center_rows)
    np.testing.assert_array_equal(a.member_offsets, b.member_offsets)
    np.testing.assert_array_equal(a.member_flat, b.member_flat)
    np.testing.assert_array_equal(a.reach_offsets, b.reach_offsets)
    np.testing.assert_array_equal(a.reach_flat, b.reach_flat)
    assert a.params == b.params
    assert a.metric_name == b.metric_name
    assert a.counters.to_dict() == b.counters.to_dict()


class TestFitModel:
    def test_matches_mu_dbscan(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        ref = mu_dbscan(small_blobs, 0.08, 6)
        np.testing.assert_array_equal(model.labels, ref.labels)
        np.testing.assert_array_equal(model.core_mask, ref.core_mask)
        assert model.n_micro_clusters == ref.extras["n_micro_clusters"]
        assert model.to_result().fingerprint() == ref.fingerprint()

    def test_member_lists_partition_dataset(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        assert np.array_equal(
            np.sort(model.member_flat), np.arange(model.n)
        )
        for mc_id in range(model.n_micro_clusters):
            rows = model.member_rows(mc_id)
            assert np.all(model.point_mc[rows] == mc_id)

    def test_float32_input_canonicalised(self, small_blobs):
        m64 = fit_model(small_blobs, 0.08, 6)
        m32 = fit_model(small_blobs.astype(np.float32), 0.08, 6)
        assert m32.points.dtype == np.float64
        # float32 rounding moves points — clustering need not be equal,
        # but the artifact must be self-consistent and round-trippable
        loaded = FittedModel.from_bytes(m32.to_bytes())
        _assert_models_equal(m32, loaded)
        assert m64.points.dtype == loaded.points.dtype == np.float64


class TestRoundTrip:
    def test_save_load_file(self, tmp_path, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        path = save_model(model, tmp_path / "m.mudb")
        loaded = load_model(path)
        _assert_models_equal(model, loaded)
        assert loaded.to_result().fingerprint() == model.to_result().fingerprint()

    def test_loaded_model_serves_identically(self, small_blobs, rng):
        model = fit_model(small_blobs, 0.08, 6)
        loaded = FittedModel.from_bytes(model.to_bytes())
        queries = np.vstack(
            [small_blobs[:40], rng.uniform(-2, 2, (20, small_blobs.shape[1]))]
        )
        a = predict_model(model, queries)
        b = predict_model(loaded, queries)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.would_be_core, b.would_be_core)
        np.testing.assert_array_equal(a.nearest_core, b.nearest_core)

    def test_load_never_reruns_construction(self, small_blobs):
        """The acceptance-criteria counter assertion: rebuilding the
        serving index replays no Algorithm-3 (micro_clusters == 0) and
        no Algorithm-5 (reachability restored, not recomputed)."""
        model = fit_model(small_blobs, 0.08, 6)
        loaded = FittedModel.from_bytes(model.to_bytes())
        murtree = loaded.murtree  # forces the rebuild
        assert loaded.serving_counters.micro_clusters == 0
        assert loaded.serving_counters.deferred_points == 0
        assert murtree._reachable_done  # Algorithm 5 will never run
        before = loaded.serving_counters.dist_calcs
        murtree.compute_reachability()  # must be a no-op
        assert loaded.serving_counters.dist_calcs == before
        # the rebuilt structure matches the fit-time one
        fit_tree = model.murtree
        for mc_l, mc_f in zip(murtree.mcs, fit_tree.mcs):
            np.testing.assert_array_equal(mc_l.member_rows, mc_f.member_rows)
            np.testing.assert_array_equal(mc_l.reach_ids, mc_f.reach_ids)
            np.testing.assert_array_equal(mc_l.ic_rows, mc_f.ic_rows)

    def test_served_index_builds_no_reach_blocks(self, small_blobs, rng):
        """Prediction reads the routing table and the stored arrays; the
        ``FittedModel.murtree`` inspection view keeps the stored reach
        lists and lays out no reach blocks."""
        model = fit_model(small_blobs, 0.08, 6)
        loaded = FittedModel.from_bytes(model.to_bytes())
        queries = np.vstack(
            [small_blobs[::7], rng.uniform(-2, 2, (30, small_blobs.shape[1]))]
        )
        got = predict_model(loaded, queries)
        want = brute_predict(
            model.points, model.labels, model.core_mask, 0.08, 6, queries
        )
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.would_be_core, want.would_be_core)
        np.testing.assert_array_equal(got.nearest_core, want.nearest_core)
        for mc in loaded.murtree.mcs:
            assert mc.reach_ids is not None
            assert mc.reach_rows is None and mc.reach_points is None

    def test_empty_dataset(self):
        model = fit_model(np.empty((0, 3)), 0.5, 4)
        loaded = FittedModel.from_bytes(model.to_bytes())
        _assert_models_equal(model, loaded)
        res = predict_model(loaded, np.zeros((2, 3)))
        assert res.labels.tolist() == [-1, -1]
        assert not res.would_be_core.any()

    def test_all_noise(self, rng):
        pts = rng.uniform(0, 100, (60, 2))  # sparse: everything noise
        model = fit_model(pts, 0.01, 5)
        assert np.all(model.labels == -1)
        loaded = FittedModel.from_bytes(model.to_bytes())
        _assert_models_equal(model, loaded)
        res = predict_model(loaded, pts[:5])
        assert np.all(res.labels == -1)

    def test_single_micro_cluster(self, rng):
        pts = rng.normal(0.0, 0.001, (30, 2))  # one tight clump
        model = fit_model(pts, 0.5, 3)
        assert model.n_micro_clusters == 1
        loaded = FittedModel.from_bytes(model.to_bytes())
        _assert_models_equal(model, loaded)
        res = predict_model(loaded, np.zeros((1, 2)))
        assert res.labels[0] == 0 and res.would_be_core[0]

    def test_non_euclidean_metric_round_trip(self, small_blobs):
        model = fit_model(small_blobs, 0.1, 5, metric="manhattan")
        loaded = FittedModel.from_bytes(model.to_bytes())
        assert loaded.metric_name == "manhattan"
        q = small_blobs[:10]
        np.testing.assert_array_equal(
            predict_model(model, q).labels, predict_model(loaded, q).labels
        )

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        dim=st.integers(min_value=1, max_value=3),
        min_pts=st.integers(min_value=1, max_value=8),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_round_trip(self, n, dim, min_pts, dtype, seed):
        """Any fit on any small dataset survives the byte round trip
        bit-exactly and serves identical predictions."""
        gen = np.random.default_rng(seed)
        pts = gen.uniform(-1, 1, (n, dim)).astype(dtype)
        model = fit_model(pts, 0.3, min_pts)
        loaded = FittedModel.from_bytes(model.to_bytes())
        _assert_models_equal(model, loaded)
        queries = gen.uniform(-1.2, 1.2, (8, dim))
        got = predict_model(loaded, queries)
        want = brute_predict(
            model.points, model.labels, model.core_mask, 0.3, min_pts, queries
        )
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.would_be_core, want.would_be_core)
        np.testing.assert_array_equal(got.nearest_core, want.nearest_core)


class TestCorruption:
    """A damaged artifact must fail loudly, never deserialize garbage."""

    @pytest.fixture
    def blob(self, small_blobs) -> bytes:
        return fit_model(small_blobs, 0.08, 6).to_bytes()

    def test_corrupted_payload_checksum(self, blob):
        bad = bytearray(blob)
        bad[-10] ^= 0xFF  # flip a payload byte
        with pytest.raises(ModelFormatError, match="checksum"):
            FittedModel.from_bytes(bytes(bad))

    def test_wrong_format_version(self, blob):
        prefix = len(MAGIC) + 4
        (header_len,) = struct.unpack("<I", blob[len(MAGIC) : prefix])
        header = blob[prefix : prefix + header_len].decode()
        assert f'"format_version": {FORMAT_VERSION}' in header
        bumped = header.replace(
            f'"format_version": {FORMAT_VERSION}', '"format_version": 999'
        ).encode()
        rebuilt = (
            MAGIC
            + struct.pack("<I", len(bumped))
            + bumped
            + blob[prefix + header_len :]
        )
        with pytest.raises(ModelFormatError, match="format version"):
            FittedModel.from_bytes(rebuilt)

    def test_bad_magic(self, blob):
        with pytest.raises(ModelFormatError, match="magic"):
            FittedModel.from_bytes(b"XXXX" + blob[4:])

    def test_truncated_file(self, blob):
        with pytest.raises(ModelFormatError):
            FittedModel.from_bytes(blob[:10])

    def test_truncated_payload(self, blob):
        with pytest.raises(ModelFormatError, match="checksum"):
            FittedModel.from_bytes(blob[:-50])

    def test_unparseable_header(self, blob):
        prefix = len(MAGIC) + 4
        (header_len,) = struct.unpack("<I", blob[len(MAGIC) : prefix])
        garbage = b"\xff" * header_len
        with pytest.raises(ModelFormatError, match="header"):
            FittedModel.from_bytes(
                blob[:prefix] + garbage + blob[prefix + header_len :]
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.mudb")

    def test_random_bytes(self):
        with pytest.raises(ModelFormatError):
            FittedModel.from_bytes(b"not a model at all, definitely")
