"""Targeted tests for the distributed local step's fragment invariants.

`run_local_mu_dbscan` is where μDBSCAN-D's exactness is decided: owned
core flags must be globally exact, local unions must stay owned-only,
and every owned↔halo relation the merge could need must surface as a
cross pair.  These tests construct explicit two-partition scenes and
check the emitted fragments directly (the end-to-end tests then cover
the full pipeline).
"""

import numpy as np
import pytest

from repro import brute_dbscan
from repro.core.params import DBSCANParams
from repro.data.registry import load_dataset
from repro.data.synthetic import blobs_with_noise
from repro.distributed.local import _local_inputs, _package_fragment, run_local_mu_dbscan
from repro.geometry.distance import sq_dists_to_point
from repro.validation.reference import reference_state


def _split_scene(pts: np.ndarray, eps: float):
    """Split points at the median x; return both sides' (owned, halo)."""
    cut = float(np.median(pts[:, 0]))
    left = np.flatnonzero(pts[:, 0] < cut)
    right = np.flatnonzero(pts[:, 0] >= cut)
    halo_for_left = right[np.abs(pts[right, 0] - cut) < eps]
    halo_for_right = left[np.abs(pts[left, 0] - cut) < eps]
    return (left, halo_for_left), (right, halo_for_right)


@pytest.fixture(scope="module")
def scene():
    pts = blobs_with_noise(400, 2, 4, noise_fraction=0.3, seed=91)
    eps, min_pts = 0.09, 5
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    (lo, lo_halo), (ro, ro_halo) = _split_scene(pts, eps)
    frag_left = run_local_mu_dbscan(
        pts[lo], lo, pts[lo_halo], lo_halo, params
    )
    frag_right = run_local_mu_dbscan(
        pts[ro], ro, pts[ro_halo], ro_halo, params
    )
    oracle = brute_dbscan(pts, eps, min_pts)
    return pts, eps, lo, ro, frag_left, frag_right, oracle


class TestFragmentInvariants:
    def test_owned_core_flags_globally_exact(self, scene):
        pts, eps, lo, ro, frag_l, frag_r, oracle = scene
        np.testing.assert_array_equal(frag_l.core, oracle.core_mask[lo])
        np.testing.assert_array_equal(frag_r.core, oracle.core_mask[ro])

    def test_intra_edges_are_owned_only(self, scene):
        _, _, lo, ro, frag_l, frag_r, _ = scene
        lo_set, ro_set = set(lo.tolist()), set(ro.tolist())
        for a, b in frag_l.intra_edges:
            assert int(a) in lo_set and int(b) in lo_set
        for a, b in frag_r.intra_edges:
            assert int(a) in ro_set and int(b) in ro_set

    def test_cross_pairs_cross_the_boundary(self, scene):
        _, _, lo, ro, frag_l, frag_r, _ = scene
        lo_set, ro_set = set(lo.tolist()), set(ro.tolist())
        for a, b in frag_l.cross_pairs:
            assert int(a) in lo_set and int(b) in ro_set
        for a, b in frag_r.cross_pairs:
            assert int(a) in ro_set and int(b) in lo_set

    def test_border_claim_pairs_are_within_eps(self, scene):
        """Pairs whose halo endpoint is non-core act as border claims at
        the merge and must be genuine ε-relations.  Core-core pairs may
        legitimately exceed ε: Algorithm 7's batched collapse emits
        (anchor, halo-core) for *chained* connections — both endpoints
        are cores of one density-connected component, so the union is
        legal without a direct edge."""
        pts, eps, _, _, frag_l, frag_r, oracle = scene
        for frag in (frag_l, frag_r):
            for a, b in frag.cross_pairs:
                if oracle.core_mask[int(a)] and oracle.core_mask[int(b)]:
                    continue
                d = float(np.sqrt(sq_dists_to_point(pts[[int(a)]], pts[int(b)])[0]))
                assert d < eps + 1e-12

    def test_fragments_resolve_to_the_exact_clustering(self, scene):
        """The completeness requirement, stated the way it matters:
        resolving the two fragments reconstructs exactly the oracle's
        core components (cross edges may be represented transitively
        through chained pairs, so per-edge emission is not required)."""
        from repro import check_exact
        from repro.core.result import ClusteringResult
        from repro.distributed.merging import resolve_fragments

        pts, eps, _, _, frag_l, frag_r, oracle = scene
        outcome = resolve_fragments([frag_l, frag_r], pts.shape[0])
        result = ClusteringResult(
            labels=outcome.labels,
            core_mask=outcome.core_mask,
            params=oracle.params,
            algorithm="two_fragment_resolution",
        )
        report = check_exact(result, oracle, points=pts)
        assert report.ok, str(report)

    def test_cross_pairs_deduplicated(self, scene):
        _, _, _, _, frag_l, frag_r, _ = scene
        for frag in (frag_l, frag_r):
            pairs = [tuple(p) for p in frag.cross_pairs]
            assert len(pairs) == len(set(pairs))

    def test_stats_present(self, scene):
        _, _, lo, _, frag_l, _, _ = scene
        assert frag_l.stats["n_owned"] == lo.shape[0]
        assert frag_l.stats["n_halo"] >= 0
        assert "phase_seconds" in frag_l.stats


def _blobs_scene():
    return blobs_with_noise(3000, 2, 6, seed=3), 0.06, 7


def _halos_scene():
    pts, spec = load_dataset("MPAGD100M3D", scale=0.3)
    return pts, spec.eps, spec.min_pts


def _reference_fragment(owned_points, owned_gids, halo_points, halo_gids, params):
    """The rank's fragment as the paper's per-point pipeline builds it."""
    points, owned_mask, factory = _local_inputs(
        owned_points, owned_gids, halo_points, halo_gids
    )
    state, timers = reference_state(
        points, params, process_mask=owned_mask, state_factory=factory
    )
    return _package_fragment(state, timers)


class TestBatchedFragments:
    """The distributed ``union_many`` emits what a per-pair union loop
    would, and roots do not depend on union order, so the batched engine
    must emit a rank's fragment exactly as the per-point reference does:
    the same cross pairs in the same order, the same local unions and
    flags."""

    @pytest.mark.parametrize("make", [_blobs_scene, _halos_scene], ids=["blobs", "halos"])
    def test_batched_fragment_equals_per_point(self, make):
        pts, eps, min_pts = make()
        params = DBSCANParams(eps=eps, min_pts=min_pts)
        for owned, halo in _split_scene(pts, eps):
            batched, per_point = (
                run(pts[owned], owned, pts[halo], halo, params)
                for run in (run_local_mu_dbscan, _reference_fragment)
            )
            assert batched.cross_pairs.shape[0] > 0
            np.testing.assert_array_equal(batched.cross_pairs, per_point.cross_pairs)
            np.testing.assert_array_equal(batched.intra_edges, per_point.intra_edges)
            np.testing.assert_array_equal(batched.core, per_point.core)
            np.testing.assert_array_equal(batched.assigned, per_point.assigned)
