"""Unit tests for the distance kernels."""

import numpy as np
import pytest

from repro.geometry.distance import (
    chunked_pairwise_apply,
    count_within,
    iter_neighbor_lists,
    neighbors_within,
    pairwise_sq_dists,
    sq_dist,
    sq_dists_to_point,
)


class TestSqDist:
    def test_zero_for_identical_points(self):
        p = np.array([1.0, 2.0, 3.0])
        assert sq_dist(p, p) == 0.0

    def test_matches_manual_computation(self):
        assert sq_dist(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 25.0

    def test_symmetry(self, rng):
        a, b = rng.normal(size=(2, 7))
        assert sq_dist(a, b) == pytest.approx(sq_dist(b, a))


class TestSqDistsToPoint:
    def test_matches_naive_loop(self, rng):
        pts = rng.normal(size=(50, 4))
        q = rng.normal(size=4)
        expected = np.array([sq_dist(p, q) for p in pts])
        np.testing.assert_allclose(sq_dists_to_point(pts, q), expected, rtol=1e-12)

    def test_single_point_row_vector(self):
        out = sq_dists_to_point(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(2.0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sq_dists_to_point(np.zeros((3, 2)), np.zeros(3))

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError, match="expected a"):
            sq_dists_to_point(np.zeros((2, 2, 2)), np.zeros(2))


class TestPairwiseSqDists:
    def test_matches_scipy(self, rng):
        from scipy.spatial.distance import cdist

        a = rng.normal(size=(30, 5))
        b = rng.normal(size=(20, 5))
        np.testing.assert_allclose(
            pairwise_sq_dists(a, b), cdist(a, b) ** 2, rtol=1e-9, atol=1e-9
        )

    def test_self_mode_has_zero_diagonal(self, rng):
        a = rng.normal(size=(25, 3))
        out = pairwise_sq_dists(a)
        np.testing.assert_array_equal(np.diag(out), np.zeros(25))

    def test_never_negative(self, rng):
        # nearly-identical points provoke cancellation
        a = rng.normal(size=(40, 3))
        b = a + 1e-9
        assert (pairwise_sq_dists(a, b) >= 0.0).all()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairwise_sq_dists(np.zeros((3, 2)), np.zeros((3, 4)))


class TestNeighborsWithin:
    def test_strict_inequality_excludes_boundary(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        # point at distance exactly 1.0 from q=0 must be excluded
        got = neighbors_within(pts, np.array([0.0]), eps=1.0)
        np.testing.assert_array_equal(got, [0])

    def test_self_is_included(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        got = neighbors_within(pts, np.array([0.0, 0.0]), eps=0.5)
        np.testing.assert_array_equal(got, [0])

    def test_count_within_agrees(self, rng):
        pts = rng.random((100, 3))
        q = rng.random(3)
        assert count_within(pts, q, 0.3) == neighbors_within(pts, q, 0.3).shape[0]

    def test_nonpositive_eps_raises(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            neighbors_within(np.zeros((1, 1)), np.zeros(1), 0.0)


class TestChunkedPairwise:
    def test_blocks_cover_full_matrix(self, rng):
        a = rng.normal(size=(37, 3))
        b = rng.normal(size=(11, 3))
        full = pairwise_sq_dists(a, b)
        seen = np.zeros_like(full)

        def collect(offset, block):
            seen[offset : offset + block.shape[0]] = block

        chunked_pairwise_apply(a, b, collect, chunk_rows=10)
        np.testing.assert_allclose(seen, full, rtol=1e-9, atol=1e-12)

    def test_bad_chunk_rows_raises(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            chunked_pairwise_apply(np.zeros((2, 1)), np.zeros((2, 1)), lambda o, b: None, 0)


class TestIterNeighborLists:
    def test_matches_direct_queries(self, rng):
        pts = rng.random((60, 2))
        eps = 0.25
        for idx, nbrs in iter_neighbor_lists(pts, eps, chunk_rows=16):
            expected = neighbors_within(pts, pts[idx], eps)
            np.testing.assert_array_equal(np.sort(nbrs), np.sort(expected))

    def test_covers_every_index_once(self, rng):
        pts = rng.random((23, 2))
        indices = [idx for idx, _ in iter_neighbor_lists(pts, 0.1, chunk_rows=7)]
        assert indices == list(range(23))


class TestFarFromOrigin:
    """The BLAS-expansion kernels must not lose the difference under
    ``|x|²`` far from the origin.  On a 1/1024 lattice a shift by 10⁶
    or 10⁷ is exact, so every pairwise difference — and with it the
    clustering — is unchanged by the shift."""

    @pytest.fixture(scope="class")
    def lattice(self):
        from repro.baselines import brute_dbscan

        pts = np.round(np.random.default_rng(5).uniform(0, 12, (3000, 3)) * 1024) / 1024
        return pts, brute_dbscan(pts, 1.0, 8)

    @pytest.mark.parametrize("shift", [1e6, 1e7])
    def test_fit_and_oracle_exact_after_shift(self, lattice, shift):
        import repro
        from repro.baselines import brute_dbscan
        from repro.validation.exactness import check_exact

        pts, truth = lattice
        shifted = pts + shift
        np.testing.assert_array_equal(shifted - shift, pts)  # the shift is exact
        for result in (repro.fit(shifted, 1.0, 8), brute_dbscan(shifted, 1.0, 8)):
            np.testing.assert_array_equal(result.core_mask, truth.core_mask)
            report = check_exact(result, truth, points=pts)
            assert report.ok, str(report)

    @pytest.mark.parametrize("shift", [0.0, 3e7 + 2**-10], ids=["origin", "far"])
    def test_kernels_centre_before_expanding(self, shift):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + shift
        b = np.array([[0.5, 0.0], [3.0, 4.0]]) + shift
        expected = np.array([[0.25, 25.0], [0.25, 20.0], [1.25, 18.0]])
        np.testing.assert_array_equal(pairwise_sq_dists(a, b), expected)
        np.testing.assert_array_equal(
            pairwise_sq_dists(a), [[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]
        )
        blocks = []
        chunked_pairwise_apply(a, b, lambda off, blk: blocks.append(blk), chunk_rows=2)
        np.testing.assert_array_equal(np.vstack(blocks), expected)
