"""Unit tests for the uniform grid index."""

import warnings

import numpy as np
import pytest

from repro.geometry.distance import neighbors_within
from repro.index import grid as grid_mod
from repro.index.grid import (
    NO_ID,
    CellGroups,
    UniformGrid,
    concat_ranges,
    hash_cells,
    neighbor_cells,
    pair_passes,
    run_minima,
    run_starts,
)


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_stencil_is_cached_contiguous_and_read_only(self, dim):
        want = np.stack(np.meshgrid(*[np.arange(-1, 2)] * dim, indexing="ij"), axis=-1)
        got = grid_mod._stencil(dim)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want.reshape(-1, dim))
        assert got.flags.c_contiguous and not got.flags.writeable
        assert grid_mod._stencil(dim) is got


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


def _ranges(starts, lengths):
    parts = [np.arange(s, s + n) for s, n in zip(starts, lengths)]
    return np.concatenate(parts).astype(np.int64) if parts else np.empty(0, np.int64)


class TestConcatRanges:
    def test_matches_the_ranges_one_after_another(self):
        starts = np.array([5, -3, 5, 100, 0, 7])
        lengths = np.array([2, 0, 3, 1, 0, 4])
        got = concat_ranges(starts, lengths)
        assert got.dtype == np.int64
        assert got.tolist() == [5, 6, 5, 6, 7, 100, 7, 8, 9, 10]

    def test_empty_and_zero_length(self):
        none = np.empty(0, dtype=np.int64)
        assert concat_ranges(none, none).size == 0
        assert concat_ranges(np.array([3, 9]), np.array([0, 0])).size == 0


class TestPairPasses:
    """The pass iterator behind predict's, streaming's and Algorithm 5's
    flat pair kernels."""

    @staticmethod
    def _run(starts, lengths, budget=None):
        owner = np.arange(len(starts)) * 10 + 3
        passes = list(pair_passes(owner, np.asarray(starts), np.asarray(lengths), budget))
        for o, e in passes:
            assert o.shape == e.shape and o.size
        if passes:
            o, e = (np.concatenate(part) for part in zip(*passes))
            assert np.array_equal(o, np.repeat(owner, lengths))
            assert np.array_equal(e, _ranges(starts, lengths))
        return [o.size for o, _ in passes]

    @pytest.mark.parametrize("budget", [1, 3, 7, 64, 10_000])
    def test_every_element_once_in_order(self, budget):
        rng = np.random.default_rng(budget)
        starts = rng.integers(-50, 50, 40)
        lengths = rng.integers(0, 9, 40)
        sizes = self._run(starts, lengths, budget)
        total = int(lengths.sum())
        assert sum(sizes) == total
        # passes are full up to the last one
        assert sizes == [budget] * (total // budget) + ([total % budget] if total % budget else [])

    def test_default_budget_is_read_at_call_time(self, monkeypatch):
        starts, lengths = np.arange(0, 60, 6), np.full(10, 5)
        assert self._run(starts, lengths) == [50]
        monkeypatch.setattr(grid_mod, "_PAIR_BUDGET", 8)
        assert self._run(starts, lengths) == [8] * 6 + [2]

    def test_a_range_split_between_passes(self):
        owner = np.array([7])
        passes = list(pair_passes(owner, np.array([100]), np.array([10]), 4))
        assert [o.tolist() for o, _ in passes] == [[7] * 4, [7] * 4, [7] * 2]
        assert [e.tolist() for _, e in passes] == [
            [100, 101, 102, 103], [104, 105, 106, 107], [108, 109]
        ]

    @pytest.mark.parametrize("budget", [1, 2, 100])
    def test_zero_length_and_empty_ranges(self, budget):
        assert self._run([], [], budget) == []
        assert self._run([4, 8], [0, 0], budget) == []
        # zero-length ranges first, between and last, on pass boundaries
        sizes = self._run([5, 9, 20, 30, 1], [0, 3, 0, 2, 0], budget)
        assert sum(sizes) == 5 and max(sizes) <= budget


class TestRunReductions:
    def test_run_starts(self):
        assert run_starts(np.array([4, 4, 1, 1, 1, 4])).tolist() == [0, 2, 5]
        assert run_starts(np.array([9])).tolist() == [0]

    def test_nearest_then_lowest_id(self):
        owner = np.array([0, 0, 0, 2, 2, 5])
        raw = np.array([3.0, 1.0, 1.0, 2.0, 2.0, 7.0])
        ids = np.array([9, 8, 4, 6, 1, 3])
        got = run_minima(owner, raw, ids)
        assert [a.tolist() for a in got] == [[0, 2, 5], [1.0, 2.0, 7.0], [4, 1, 3]]

    def test_matches_a_loop(self):
        rng = np.random.default_rng(11)
        owner = np.sort(rng.integers(0, 30, 400))
        raw = rng.integers(0, 4, 400).astype(np.float64)  # many ties
        ids = rng.permutation(400)
        got_owner, got_raw, got_ids = run_minima(owner, raw, ids)
        assert got_owner.tolist() == np.unique(owner).tolist()
        for o, r, i in zip(got_owner, got_raw, got_ids):
            mine = owner == o
            assert r == raw[mine].min()
            assert i == ids[mine & (raw == r)].min() != NO_ID

    def test_empty(self):
        got = run_minima(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))
        assert all(a.size == 0 for a in got)


class TestCellGroups:
    """The shared grid join of Algorithm 5 and predict's routing."""

    @pytest.mark.parametrize("budget", [None, 1, 5])
    def test_join_pairs_each_query_with_the_ids_of_adjacent_cells(self, budget):
        rng = np.random.default_rng(6)
        pts = rng.random((300, 2)) * 5.0
        cells, cell_of = hash_cells(pts, 0.5, scale=5.0)
        groups = CellGroups.of(cells, cell_of)
        for c in range(cells.shape[0]):
            got = groups.members[groups.first[c] : groups.first[c] + groups.count[c]]
            assert got.tolist() == np.flatnonzero(cell_of == c).tolist()
        q = rng.random((50, 2)) * 6.0 - 0.5
        q_cells, q_cell = hash_cells(q, 0.5, scale=5.0)
        owner = np.arange(50) + 1000
        passes = list(groups.join(q_cells, q_cell, owner, budget))
        if budget:
            assert max(o.size for o, _ in passes) <= budget
        got_owner = np.concatenate([o for o, _ in passes])
        got_ids = np.concatenate([i for _, i in passes])
        assert np.all(np.diff(got_owner) >= 0)  # query after query
        near = (np.abs(q_cells[q_cell][:, None] - cells[cell_of][None]) <= 1).all(axis=2)
        i, j = np.nonzero(near)
        assert sorted(zip(got_owner.tolist(), got_ids.tolist())) == sorted(
            zip(owner[i].tolist(), j.tolist())
        )

    @pytest.mark.parametrize("cell_pairs", [1, 54, 189])
    def test_chunked_join_keeps_every_pair_in_input_order(self, cell_pairs, monkeypatch):
        # 3-D over more than 27 cells: a query cell has at most 27
        # adjacent cells, so these budgets join 1, 2 and 7 queries a chunk
        rng = np.random.default_rng(7)
        pts = rng.random((400, 3)) * 4.0
        cells, cell_of = hash_cells(pts, 0.5, scale=4.0)
        groups = CellGroups.of(cells, cell_of)
        q = rng.random((60, 3)) * 4.0
        q_cells, q_cell = hash_cells(q, 0.5, scale=4.0)
        owner = np.arange(60) * 2

        def pairs(budget):
            passes = list(groups.join(q_cells, q_cell, owner, budget))
            return (np.concatenate([o for o, _ in passes]),
                    np.concatenate([i for _, i in passes]))

        want = pairs(None)  # one chunk
        assert cells.shape[0] > 27
        monkeypatch.setattr(grid_mod, "_JOIN_CELL_PAIRS", cell_pairs)
        for budget in (None, 5):
            got = pairs(budget)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_no_queries(self):
        cells, cell_of = hash_cells(np.zeros((3, 2)), 1.0)
        none = np.empty(0, dtype=np.int64)
        assert list(CellGroups.of(cells, cell_of).join(cells[:0], none, none)) == []
