"""Unit tests for the uniform grid index."""

import warnings

import numpy as np
import pytest

from repro.geometry.distance import neighbors_within
from repro.index.grid import UniformGrid, hash_cells, neighbor_cells


class TestUniformGrid:
    def test_query_matches_brute(self, rng):
        pts = rng.random((300, 2))
        grid = UniformGrid(pts, cell_width=0.1)
        for _ in range(20):
            q = rng.random(2)
            got = np.sort(grid.query_ball(q, 0.15))
            expected = np.sort(neighbors_within(pts, q, 0.15))
            np.testing.assert_array_equal(got, expected)

    def test_query_point_outside_data_extent(self, rng):
        pts = rng.random((100, 2))
        grid = UniformGrid(pts, cell_width=0.1)
        got = np.sort(grid.query_ball(np.array([5.0, 5.0]), 0.2))
        assert got.shape == (0,)
        got2 = np.sort(grid.query_ball(np.array([-0.05, 0.5]), 0.2))
        expected = np.sort(neighbors_within(pts, np.array([-0.05, 0.5]), 0.2))
        np.testing.assert_array_equal(got2, expected)

    def test_cells_partition_points(self, rng):
        pts = rng.random((200, 3))
        grid = UniformGrid(pts, cell_width=0.25)
        all_rows = np.concatenate(list(grid.cells().values()))
        assert np.sort(all_rows).tolist() == list(range(200))

    def test_cell_of_consistent(self, rng):
        pts = rng.random((50, 2))
        grid = UniformGrid(pts, cell_width=0.2)
        for i in range(50):
            assert i in grid.cell_members(grid.cell_of(i)).tolist()

    def test_n_cells_grows_with_dimension(self, rng):
        # same marginal data, higher dimension -> exponentially more
        # occupied cells (the Table IV effect)
        counts = []
        for d in (1, 2, 3):
            pts = rng.random((2000, d))
            counts.append(UniformGrid(pts, cell_width=0.2).n_cells)
        assert counts[0] < counts[1] < counts[2]

    def test_neighbor_cell_keys_includes_self(self, rng):
        pts = rng.random((100, 2))
        grid = UniformGrid(pts, cell_width=0.3)
        key = grid.cell_of(0)
        assert key in grid.neighbor_cell_keys(key, 1)

    def test_neighbor_cell_keys_reach_zero(self, rng):
        pts = rng.random((100, 2))
        grid = UniformGrid(pts, cell_width=0.3)
        key = grid.cell_of(0)
        assert grid.neighbor_cell_keys(key, 0) == [key]

    def test_neighbor_keys_enumeration_paths_agree(self):
        # high-d: stencil enumeration infeasible, occupied-scan kicks in;
        # both paths must return the same set
        rng = np.random.default_rng(5)
        pts = rng.random((60, 8))
        grid = UniformGrid(pts, cell_width=0.4)
        key = grid.cell_of(0)
        via_scan = set(grid.neighbor_cell_keys(key, 3))  # stencil 7^8 >> cells
        center = np.asarray(key)
        expected = {
            k
            for k in grid.cells()
            if np.max(np.abs(np.asarray(k) - center)) <= 3
        }
        assert via_scan == expected

    def test_empty_grid(self):
        grid = UniformGrid(np.empty((0, 2)), cell_width=1.0)
        assert grid.n_cells == 0
        assert grid.query_ball(np.zeros(2), 1.0).shape == (0,)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="cell_width"):
            UniformGrid(np.zeros((2, 2)), cell_width=0.0)
        grid = UniformGrid(np.zeros((2, 2)), cell_width=1.0)
        with pytest.raises(ValueError, match="radius"):
            grid.candidates_near(np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="reach"):
            grid.neighbor_cell_keys((0, 0), -1)


def _pairs(indptr, nbrs):
    src = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    return set(zip(src.tolist(), nbrs.tolist()))


def _brute_pairs(cells):
    near = (np.abs(cells[:, None, :] - cells[None, :, :]) <= 1).all(axis=2)
    return set(zip(*(idx.tolist() for idx in np.nonzero(near))))


class TestNeighborCells:
    """The vectorised all-cells lookup behind the reachability join."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_matches_neighbor_cell_keys(self, rng, dim):
        # low d takes the stencil path, 8-d the occupied-set compare
        grid = UniformGrid(rng.random((150, dim)), cell_width=0.15)
        keys = list(grid.cells())
        index = {key: i for i, key in enumerate(keys)}
        indptr, nbrs = neighbor_cells(np.asarray(keys, dtype=np.int64))
        for i, key in enumerate(keys):
            got = nbrs[indptr[i] : indptr[i + 1]].tolist()
            assert got == sorted(got)
            assert got == sorted(index[k] for k in grid.neighbor_cell_keys(key, 1))

    @pytest.mark.parametrize("dim, n_cells", [(5, 1200), (8, 300)])
    def test_coordinates_beyond_int64_keys(self, dim, n_cells):
        # clustered cells spread over ±2**40 per axis: no linearised key
        # fits in int64; 5-d takes the stencil path (243 <= 1200 cells),
        # 8-d the compare (6561 > 300)
        rng = np.random.default_rng(dim)
        base = rng.integers(-(2**40), 2**40, size=(n_cells // 6, dim))
        base = np.repeat(base, 6, axis=0)
        cells = np.unique(base + rng.integers(0, 3, size=base.shape), axis=0)
        got = _pairs(*neighbor_cells(cells))
        assert got == _brute_pairs(cells)
        assert len(got) > cells.shape[0]  # not only the self pairs

    @pytest.mark.parametrize(
        "dim, spread",
        [(2, 8), (3, 4), (8, 2), (5, 2**40)],
        ids=["2d-stencil", "3d", "8d-compare", "5d-wide-keys"],
    )
    def test_cross_join_matches_brute_force(self, dim, spread):
        # two cell sets jittered around shared bases; the 3-D case runs
        # once with others large enough for the stencil, once too small
        rng = np.random.default_rng(dim)
        base = rng.integers(-spread, spread, size=(40, dim))

        def draw(k):
            jitter = rng.integers(0, 3, size=(k, dim))
            return np.unique(base[rng.integers(0, 40, k)] + jitter, axis=0)

        for k_o in (400, 20):
            cells, others = draw(300), draw(k_o)
            indptr, nbrs = neighbor_cells(cells, others)
            assert indptr.shape == (cells.shape[0] + 1,)
            got = _pairs(indptr, nbrs)
            near = (np.abs(cells[:, None, :] - others[None, :, :]) <= 1).all(axis=2)
            assert got == set(zip(*(idx.tolist() for idx in np.nonzero(near))))
            assert got

    def test_empty_and_invalid(self):
        indptr, nbrs = neighbor_cells(np.empty((0, 3), dtype=np.int64))
        assert indptr.tolist() == [0] and nbrs.size == 0
        with pytest.raises(ValueError, match=r"\(k, d\)"):
            neighbor_cells(np.zeros(3, dtype=np.int64))
        indptr, nbrs = neighbor_cells(np.zeros((2, 3)), np.empty((0, 3)))
        assert indptr.tolist() == [0, 0, 0] and nbrs.size == 0
        with pytest.raises(ValueError, match="others"):
            neighbor_cells(np.zeros((2, 3)), np.zeros((2, 2)))


class TestHashCells:
    """Cells for the grid joins: close points land in touching cells."""

    @pytest.mark.parametrize("offset", [0.0, -1e9])
    def test_points_within_reach_share_or_touch_cells(self, offset):
        rng = np.random.default_rng(4)
        reach = 1.5
        a = rng.random((500, 3)) * 50.0 + offset
        # per-axis differences up to reach, including exactly reach
        b = a + rng.choice([-reach, reach, 0.3], size=a.shape)
        cells, cell_of = hash_cells(np.concatenate([a, b]), reach)
        assert np.unique(cells, axis=0).shape == cells.shape
        assert (np.abs(cells[cell_of[:500]] - cells[cell_of[500:]]) <= 1).all()

    def test_far_coordinates_stay_within_2_to_40(self):
        pts = np.array([[2e19, -3e18], [0.0, 1.0], [2e19 + 4096.0, -3e18]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells, cell_of = hash_cells(pts, 3.0)
        assert np.abs(cells).max() <= 2**40
        assert cell_of[0] == cell_of[2] != cell_of[1]
