"""The MC-batched neighborhood engine is a pure execution strategy.

Production μDBSCAN must reproduce the paper's per-point pipeline
(:mod:`repro.validation.reference`) *exactly*: same labels, same core
mask, same query/work counters — across metrics, the DESIGN.md §5
ablation flags, ``process_mask`` restrictions, block chunking, and the
per-point loop of the non-cached aux indexes.  These tests pin that
contract by running both and diffing everything observable.
"""

import numpy as np
import pytest

from repro.core.mudbscan import mu_dbscan, run_mu_dbscan_state
from repro.core.params import DBSCANParams
from repro.core.process_mcs import process_micro_clusters
from repro.core.remaining import _flat_wave
from repro.core.state import MuDBSCANState
from repro.data.synthetic import blobs_with_noise
from repro.instrumentation.counters import Counters
from repro.microcluster.murtree import DENSE_MIN_CANDIDATES, MuRTree
from repro.validation.exactness import check_exact
from repro.validation.reference import reference_mu_dbscan, reference_state

COUNTER_FIELDS = ("queries_run", "queries_saved", "dist_calcs", "unions")


def _workload(seed: int, dim: int = 2):
    pts = blobs_with_noise(700, dim, 5, noise_fraction=0.25, seed=seed)
    return pts, 0.06, 7


def _mixed_workload(seed: int):
    """Two dense blobs in noise: pending rows on both sides of the dense
    kernel's reach-block threshold (see TestBothKernels)."""
    pts = blobs_with_noise(2000, 2, 2, noise_fraction=0.3, seed=seed)
    return pts, 0.06, 7


def _run_both(pts, eps, min_pts, **kwargs):
    batched = mu_dbscan(pts, eps, min_pts, **kwargs)
    per_point = reference_mu_dbscan(pts, eps, min_pts, **kwargs)
    return batched, per_point


def _assert_equivalent(batched, per_point):
    np.testing.assert_array_equal(batched.core_mask, per_point.core_mask)
    np.testing.assert_array_equal(batched.labels, per_point.labels)
    for field in COUNTER_FIELDS:
        assert getattr(batched.counters, field) == getattr(
            per_point.counters, field
        ), field


class TestLabelAndCounterEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_metrics(self, seed, metric):
        pts, eps, min_pts = _workload(seed)
        _assert_equivalent(*_run_both(pts, eps, min_pts, metric=metric))

    @pytest.mark.parametrize(
        "flags",
        [
            {"defer_2eps": False},
            {"dynamic_wndq": False},
            {"filtration": False},
            {"defer_2eps": False, "dynamic_wndq": False, "filtration": False},
        ],
        ids=lambda f: "+".join(sorted(f)),
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_ablation_flags(self, seed, flags):
        pts, eps, min_pts = _workload(seed)
        _assert_equivalent(*_run_both(pts, eps, min_pts, **flags))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_dimensional(self, seed):
        pts, eps, min_pts = _workload(seed, dim=3)
        _assert_equivalent(*_run_both(pts, 0.12, min_pts))

    def test_block_size_chunking(self):
        """A tiny block_size forces multi-chunk blocks — same answers."""
        pts, eps, min_pts = _workload(4)
        default = mu_dbscan(pts, eps, min_pts)
        chunked = mu_dbscan(pts, eps, min_pts, block_size=3)
        _assert_equivalent(chunked, default)

    def test_batched_is_exact_against_oracle(self):
        from repro.baselines import brute_dbscan

        pts, eps, min_pts = _workload(5)
        batched = mu_dbscan(pts, eps, min_pts)
        report = check_exact(batched, brute_dbscan(pts, eps, min_pts), points=pts)
        assert report.ok, str(report)


class TestProcessMaskEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_masked_runs_match(self, seed):
        """μDBSCAN-D's restriction composes with batching unchanged."""
        pts, eps, min_pts = _workload(seed)
        mask = np.zeros(pts.shape[0], dtype=bool)
        mask[: pts.shape[0] // 2] = True
        a, b = (
            run(
                pts,
                DBSCANParams(eps=eps, min_pts=min_pts),
                counters=Counters(),
                process_mask=mask,
            )[0]
            for run in (run_mu_dbscan_state, reference_state)
        )
        np.testing.assert_array_equal(a.core, b.core)
        np.testing.assert_array_equal(a.assigned, b.assigned)
        np.testing.assert_array_equal(a.queried, b.queried)
        np.testing.assert_array_equal(
            a.uf.labels(noise_mask=a.final_noise_mask()),
            b.uf.labels(noise_mask=b.final_noise_mask()),
        )
        for field in COUNTER_FIELDS:
            assert getattr(a.counters, field) == getattr(b.counters, field), field


class TestAuxIndexFallback:
    @pytest.mark.parametrize("aux_index", ["flat", "rtree"])
    def test_non_cached_modes_fall_back_per_point(self, aux_index):
        """Outside cached mode production runs the per-point loop —
        identical results and identical (eagerly counted) work."""
        pts, eps, min_pts = _workload(6)
        _assert_equivalent(*_run_both(pts, eps, min_pts, aux_index=aux_index))


class TestQueryBallBlock:
    """Unit contract of MuRTree.query_ball_block vs query_ball."""

    @pytest.fixture(scope="class")
    def tree(self):
        pts, eps, _ = _workload(7)
        tree = MuRTree(pts, eps)
        tree.compute_reachability()
        return tree

    def test_rows_match_per_point_queries(self, tree):
        h_raw = tree.metric.threshold(tree.eps * 0.5)
        for mc in tree.mcs[:40]:
            rows = mc.member_rows
            res = tree.query_ball_block(mc.mc_id, rows, block_size=2)
            for i, row in enumerate(rows):
                nbrs, raw = tree.query_ball(int(row))
                np.testing.assert_array_equal(res.nbrs(i), nbrs)
                # the block kernel (norm expansion) and the per-point
                # kernel (direct differences) agree to rounding only
                np.testing.assert_allclose(res.raw(i), raw, rtol=1e-9, atol=1e-12)
                assert res.n_eps[i] == nbrs.shape[0]
                inner = nbrs[raw < h_raw]
                np.testing.assert_array_equal(res.inner(i), inner)
                assert res.n_half[i] == inner.shape[0]

    def test_counts_work_eagerly_by_default(self, tree):
        mc = tree.mcs[0]
        before = tree.counters.dist_calcs
        tree.query_ball_block(mc.mc_id, mc.member_rows)
        charged = tree.counters.dist_calcs - before
        assert charged == mc.member_rows.shape[0] * mc.reach_rows.shape[0]

    def test_lazy_accounting_exposes_per_row_cost(self, tree):
        mc = tree.mcs[0]
        before = tree.counters.dist_calcs
        res = tree.query_ball_block(mc.mc_id, mc.member_rows, count_work=False)
        assert tree.counters.dist_calcs == before  # nothing charged yet
        assert res.per_row_cost == mc.reach_rows.shape[0]

    def test_rejects_foreign_rows(self, tree):
        foreign = None
        for mc in tree.mcs:
            if mc.mc_id != int(tree.point_mc[0]):
                foreign = mc
                break
        assert foreign is not None
        with pytest.raises(ValueError, match="belong"):
            tree.query_ball_block(int(tree.point_mc[0]), foreign.member_rows)


class TestBothKernels:
    """Rows of reach blocks of at least ``DENSE_MIN_CANDIDATES``
    candidates are answered by dense per-MC sub-blocks, all others by
    flat waves; on a workload with many rows of each, the two together
    must still reproduce the per-point reference exactly."""

    @staticmethod
    def _pending_block_sizes(pts, eps, min_pts, metric):
        tree = MuRTree(pts, eps, metric=metric)
        tree.compute_reachability()
        state = MuDBSCANState(tree, DBSCANParams(eps=eps, min_pts=min_pts), Counters())
        process_micro_clusters(state)
        return tree, np.diff(tree.block_offsets)[tree.point_mc[~state.wndq]]

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_workload_reaches_both_kernels(self, metric):
        pts, eps, min_pts = _mixed_workload(0)
        _, sizes = self._pending_block_sizes(pts, eps, min_pts, metric)
        assert np.count_nonzero(sizes >= DENSE_MIN_CANDIDATES) > 200
        assert np.count_nonzero(sizes < DENSE_MIN_CANDIDATES) > 200

    @pytest.mark.parametrize("dynamic_wndq", [True, False])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_matches_per_point(self, metric, dynamic_wndq):
        pts, eps, min_pts = _mixed_workload(1)
        _assert_equivalent(
            *_run_both(pts, eps, min_pts, metric=metric, dynamic_wndq=dynamic_wndq)
        )

    def test_block_size_three(self):
        pts, eps, min_pts = _mixed_workload(2)
        chunked = mu_dbscan(pts, eps, min_pts, block_size=3)
        per_point = reference_mu_dbscan(pts, eps, min_pts)
        _assert_equivalent(chunked, per_point)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_process_mask(self, metric):
        pts, eps, min_pts = _mixed_workload(3)
        mask = np.random.default_rng(3).random(pts.shape[0]) < 0.5
        a, b = (
            run(
                pts,
                DBSCANParams(eps=eps, min_pts=min_pts),
                counters=Counters(),
                metric=metric,
                process_mask=mask,
            )[0]
            for run in (run_mu_dbscan_state, reference_state)
        )
        for flag in ("core", "wndq", "assigned", "queried"):
            np.testing.assert_array_equal(getattr(a, flag), getattr(b, flag))
        np.testing.assert_array_equal(
            a.uf.labels(noise_mask=a.final_noise_mask()),
            b.uf.labels(noise_mask=b.final_noise_mask()),
        )
        for field in COUNTER_FIELDS:
            assert getattr(a.counters, field) == getattr(b.counters, field), field

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_flat_wave_equals_query_ball_bitwise(self, metric):
        """A wave scores each pair with query_ball's direct form: same
        neighbours in the same order and bit-identical raw values,
        whichever rows share the wave."""
        pts, eps, min_pts = _mixed_workload(4)
        tree, _ = self._pending_block_sizes(pts, eps, min_pts, metric)
        sizes = np.diff(tree.block_offsets)[tree.point_mc]
        rows = np.flatnonzero(sizes < DENSE_MIN_CANDIDATES)
        eps_raw = tree.metric.threshold(eps)
        h_raw = tree.metric.threshold(eps * 0.5)
        for wave_rows in (rows, rows[::-7], rows[:1]):
            wave = _flat_wave(tree, wave_rows, sizes[wave_rows], eps_raw, h_raw)
            for i, row in enumerate(wave_rows.tolist()):
                nbrs, raw = tree.query_ball(row)
                np.testing.assert_array_equal(wave.nbrs(i), nbrs)
                np.testing.assert_array_equal(wave.raw(i), raw)
                assert wave.n_eps[i] == nbrs.shape[0]
                assert wave.n_half[i] == np.count_nonzero(raw < h_raw)
