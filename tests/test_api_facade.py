"""The stable public facade and the deprecated-keyword shims."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import ExtraKeys, ReproDeprecationWarning, fit, fit_distributed
from repro._compat import reset_warned
from repro.core.mudbscan import mu_dbscan
from repro.distributed.mudbscan_d import mu_dbscan_d


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    """Each test sees the warn-once behaviour from a clean slate."""
    reset_warned()
    yield
    reset_warned()


class TestFacade:
    def test_root_exports(self):
        for name in ("fit", "fit_distributed", "load_model", "suggest_eps",
                     "api", "ExtraKeys", "ReproDeprecationWarning"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_fit_matches_mu_dbscan(self, small_blobs):
        via_facade = fit(small_blobs, eps=0.08, min_pts=6)
        direct = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        np.testing.assert_array_equal(via_facade.labels, direct.labels)
        np.testing.assert_array_equal(via_facade.core_mask, direct.core_mask)
        assert via_facade.algorithm == "mu_dbscan"

    def test_fit_distributed_matches_mu_dbscan_d(self, medium_blobs_3d):
        via_facade = fit_distributed(medium_blobs_3d, 0.25, 10, n_ranks=2)
        direct = mu_dbscan_d(medium_blobs_3d, 0.25, 10, n_ranks=2)
        np.testing.assert_array_equal(via_facade.labels, direct.labels)
        assert via_facade.extras[ExtraKeys.N_RANKS] == 2

    def test_fit_forwards_options(self, small_blobs):
        res = fit(small_blobs, eps=0.08, min_pts=6, dynamic_wndq=False)
        baseline = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        np.testing.assert_array_equal(res.labels, baseline.labels)
        # the ablation only costs queries, which proves it arrived
        assert res.counters.queries_run > baseline.counters.queries_run

    def test_fit_forwards_builder_options(self, small_blobs):
        baseline = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        for engine in ("exact", "sampled", "summary"):
            res = fit(
                small_blobs, eps=0.08, min_pts=6, engine=engine,
                builder_block_size=64,
            )
            # the sweep block only changes how MCs are built, never the
            # MCs themselves — same count on every path
            assert (
                res.extras[ExtraKeys.N_MICRO_CLUSTERS]
                == baseline.extras[ExtraKeys.N_MICRO_CLUSTERS]
            )
            # a bogus block size is rejected on every engine path,
            # proving the keyword really reaches the micro-cluster layer
            with pytest.raises(ValueError, match="block_size"):
                fit(
                    small_blobs, eps=0.08, min_pts=6, engine=engine,
                    builder_block_size=0,
                )
            # one builder: the strategy keyword is gone everywhere
            with pytest.raises(TypeError, match="builder"):
                fit(small_blobs, eps=0.08, min_pts=6, engine=engine, builder="scan")

    def test_deep_imports_still_work(self):
        from repro.core.mudbscan import mu_dbscan as deep_fit
        from repro.distributed.mudbscan_d import mu_dbscan_d as deep_fit_d
        from repro.serving.model import load_model as deep_load

        assert callable(deep_fit) and callable(deep_fit_d) and callable(deep_load)

    def test_extras_keys_name_real_entries(self, small_blobs):
        res = fit(small_blobs, eps=0.08, min_pts=6)
        assert ExtraKeys.N_MICRO_CLUSTERS in res.extras
        assert ExtraKeys.AVG_MC_SIZE in res.extras
        # module-level aliases mirror the class attributes
        from repro.core import extras as extras_mod

        assert extras_mod.N_MICRO_CLUSTERS == ExtraKeys.N_MICRO_CLUSTERS


class TestRemovedPathOptions:
    """``builder`` and ``batch_queries`` chose between a production path
    and the per-point reference; the reference now lives in
    :mod:`repro.validation.reference`, and every entry point rejects
    the keywords by name."""

    @pytest.mark.parametrize("keyword", ["builder", "batch_queries"])
    @pytest.mark.parametrize(
        "entry",
        ["fit", "fit-sampled", "fit-summary", "mu_dbscan", "MuDBSCAN",
         "fit_model", "stream"],
    )
    def test_type_error_names_the_keyword(self, small_blobs, entry, keyword):
        from repro.core.mudbscan import MuDBSCAN
        from repro.serving.model import fit_model

        opt = {keyword: "scan" if keyword == "builder" else False}
        calls = {
            "fit": lambda: fit(small_blobs, eps=0.08, min_pts=6, **opt),
            "fit-sampled": lambda: fit(
                small_blobs, eps=0.08, min_pts=6, engine="sampled", **opt
            ),
            "fit-summary": lambda: fit(
                small_blobs, eps=0.08, min_pts=6, engine="summary", **opt
            ),
            "mu_dbscan": lambda: mu_dbscan(small_blobs, eps=0.08, min_pts=6, **opt),
            "MuDBSCAN": lambda: MuDBSCAN(eps=0.08, min_pts=6, **opt),
            "fit_model": lambda: fit_model(small_blobs, 0.08, 6, **opt),
            "stream": lambda: repro.stream(eps=0.08, min_pts=6, **opt),
        }
        with pytest.raises(TypeError, match=keyword):
            calls[entry]()


class TestRemovedTreeOptions:
    """``max_entries`` sized the level-1 R-tree, which neither a fit
    path nor the stream builds any more, and ``aux_bulk`` chose how the
    ``rtree`` mode packs its AuxR-trees (always STR now); the keywords
    are rejected by name."""

    @pytest.mark.parametrize(
        "entry, keyword",
        [(entry, "max_entries") for entry in (
            "fit", "fit-sampled", "fit-summary", "mu_dbscan", "MuDBSCAN",
            "fit_model", "MuRTree", "stream",
        )] + [("MuRTree", "aux_bulk")],
    )
    def test_type_error_names_the_keyword(self, small_blobs, entry, keyword):
        from repro.core.mudbscan import MuDBSCAN
        from repro.microcluster.murtree import MuRTree
        from repro.serving.model import fit_model

        opt = {keyword: 64 if keyword == "max_entries" else True}
        calls = {
            "fit": lambda: fit(small_blobs, eps=0.08, min_pts=6, **opt),
            "fit-sampled": lambda: fit(
                small_blobs, eps=0.08, min_pts=6, engine="sampled", **opt
            ),
            "fit-summary": lambda: fit(
                small_blobs, eps=0.08, min_pts=6, engine="summary", **opt
            ),
            "mu_dbscan": lambda: mu_dbscan(small_blobs, eps=0.08, min_pts=6, **opt),
            "MuDBSCAN": lambda: MuDBSCAN(eps=0.08, min_pts=6, **opt),
            "fit_model": lambda: fit_model(small_blobs, 0.08, 6, **opt),
            "MuRTree": lambda: MuRTree(small_blobs, 0.08, aux_index="rtree", **opt),
            "stream": lambda: repro.stream(eps=0.08, min_pts=6, **opt),
        }
        with pytest.raises(TypeError, match=keyword):
            calls[entry]()


class TestNonFiniteInput:
    """NaN and ±inf rows are rejected up front, naming the row, by every
    fit entry point."""

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
    )
    @pytest.mark.parametrize(
        "entry", ["fit", "fit-sampled", "fit_distributed", "stream"]
    )
    def test_rejected_with_row(self, small_blobs, entry, bad):
        X = small_blobs.copy()
        X[7, 1] = bad
        calls = {
            "fit": lambda: fit(X, eps=0.08, min_pts=6),
            "fit-sampled": lambda: fit(X, eps=0.08, min_pts=6, engine="sampled"),
            "fit_distributed": lambda: fit_distributed(X, 0.08, 6, n_ranks=2),
            "stream": lambda: repro.stream(eps=0.08, min_pts=6).partial_fit(X),
        }
        with pytest.raises(ValueError, match=r"must be finite: row 7 holds"):
            calls[entry]()

    def test_stream_keeps_working_after_a_rejected_batch(self, small_blobs):
        stream = repro.stream(eps=0.08, min_pts=6)
        bad = small_blobs[:10].copy()
        bad[3, 0] = np.nan
        with pytest.raises(ValueError, match="row 3"):
            stream.partial_fit(bad)
        stream.partial_fit(small_blobs)
        assert stream.labels_.shape == (small_blobs.shape[0],)


class TestDeprecatedAliases:
    def test_minpts_alias_warns_once_and_works(self, small_blobs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = fit(small_blobs, eps=0.08, minpts=6)
            second = fit(small_blobs, eps=0.08, minpts=6)
        repro_warnings = [
            w for w in caught if issubclass(w.category, ReproDeprecationWarning)
        ]
        assert len(repro_warnings) == 1
        assert "minpts" in str(repro_warnings[0].message)
        assert "min_pts" in str(repro_warnings[0].message)
        canonical = fit(small_blobs, eps=0.08, min_pts=6)
        np.testing.assert_array_equal(first.labels, canonical.labels)
        np.testing.assert_array_equal(second.labels, canonical.labels)

    def test_each_alias_warns_separately(self, small_blobs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(small_blobs, eps=0.08, minpts=6)
            fit(small_blobs, eps=0.08, min_samples=6)
        repro_warnings = [
            w for w in caught if issubclass(w.category, ReproDeprecationWarning)
        ]
        assert len(repro_warnings) == 2

    def test_nranks_alias_on_distributed(self, medium_blobs_3d):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fit_distributed(medium_blobs_3d, 0.25, 10, nranks=2)
        assert res.extras[ExtraKeys.N_RANKS] == 2
        assert any(
            issubclass(w.category, ReproDeprecationWarning) for w in caught
        )

    def test_both_spellings_is_type_error(self, small_blobs):
        with pytest.raises(TypeError, match="minpts"):
            fit(small_blobs, eps=0.08, min_pts=6, minpts=6)

    def test_is_a_deprecation_warning_subclass(self):
        assert issubclass(ReproDeprecationWarning, DeprecationWarning)

    def test_aliases_cover_the_stable_surface(self):
        from repro.baselines import brute_dbscan, g_dbscan, grid_dbscan, rtree_dbscan
        from repro.serving.model import fit_model

        for fn in (mu_dbscan, fit_model, brute_dbscan, rtree_dbscan,
                   g_dbscan, grid_dbscan):
            assert fn.__deprecated_aliases__["minpts"] == "min_pts"
        for fn in (mu_dbscan_d, fit_distributed):
            assert fn.__deprecated_aliases__["nranks"] == "n_ranks"
            assert fn.__deprecated_aliases__["num_ranks"] == "n_ranks"

    def test_canonical_spellings_never_warn(self, small_blobs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            fit(small_blobs, eps=0.08, min_pts=6)
