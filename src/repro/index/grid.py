"""Uniform grid index — the substrate of GridDBSCAN and HPDBSCAN.

Both grid baselines hash points to hypercube cells and restrict
neighborhood searches to the cells a ball can touch.  Two cell widths
matter in the literature:

* ``eps / sqrt(d)`` (GridDBSCAN): the cell diagonal is then ``<= eps``,
  so any cell with ``>= MinPts`` points makes all of its points core
  without a query — the all-core shortcut.
* ``eps`` (HPDBSCAN): fewer cells, 3^d neighbor stencil, no all-core
  shortcut.

The number of *materialized* (occupied) cells is what the paper's
Table IV memory comparison hinges on — it grows exponentially with the
dimension for fixed data, which this class exposes via ``n_cells``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from repro.geometry.distance import sq_dists_to_point
from repro.instrumentation.counters import Counters

__all__ = ["UniformGrid", "CenterGrid", "neighbor_cells"]

#: element budget of one lookup chunk in :func:`neighbor_cells` — bounds
#: its largest temporary (int64 probes or differences) to 4 MiB
_NEIGHBOR_TEMP_ELEMS = 1 << 19


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque, totally ordered key per int64 row: the row's bytes
    as a ``void`` scalar.  Nothing is linearised, so no key can overflow
    however many cells each axis spans."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).reshape(-1)


def neighbor_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Occupied cells adjacent to every occupied cell (Chebyshev
    distance ≤ 1, the cell itself included), in any dimension.

    ``cells`` is the ``(k, d)`` int64 stack of *distinct* occupied cell
    coordinates.  Returns CSR arrays ``(indptr, nbrs)``: the neighbours
    of cell ``i`` are ``nbrs[indptr[i]:indptr[i + 1]]``, ascending
    indices into ``cells``.

    :meth:`UniformGrid.neighbor_cell_keys`'s rule, vectorised over all
    cells at once: when the ``3 ** d`` stencil is smaller than the
    occupied set, every stencil offset is looked up in the sorted cell
    keys with ``searchsorted``; otherwise each cell is compared against
    the whole occupied set.  Both run in chunks of
    ``_NEIGHBOR_TEMP_ELEMS`` elements.
    """
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise ValueError(f"cells must be (k, d), got shape {cells.shape}")
    k, d = cells.shape
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    if k and 3**d <= k:
        keys = _row_keys(cells)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        offsets = np.stack(np.meshgrid(*[np.arange(-1, 2)] * d, indexing="ij"), axis=-1)
        offsets = offsets.reshape(-1, d)
        step = max(1, _NEIGHBOR_TEMP_ELEMS // (k * d))
        for s in range(0, offsets.shape[0], step):
            off = offsets[s : s + step]
            probes = _row_keys((cells[:, None, :] + off[None, :, :]).reshape(-1, d))
            pos = np.minimum(np.searchsorted(sorted_keys, probes), k - 1)
            found = np.flatnonzero(sorted_keys[pos] == probes)
            src_parts.append(found // off.shape[0])
            dst_parts.append(order[pos[found]])
    else:
        # compare on the first axis, then narrow the surviving pairs one
        # axis at a time: far cells drop out after a few axes
        axes = np.ascontiguousarray(cells.T)
        step = max(1, _NEIGHBOR_TEMP_ELEMS // max(1, k))
        for s in range(0, k, step):
            diff = axes[0, s : s + step, None] - axes[0, None, :]
            i, j = np.nonzero(np.abs(diff, out=diff) <= 1)
            i += s
            for col in axes[1:]:
                keep = np.abs(col[i] - col[j]) <= 1
                i, j = i[keep], j[keep]
            src_parts.append(i)
            dst_parts.append(j)
    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    order = np.lexsort((dst, src))
    return np.searchsorted(src[order], np.arange(k + 1)), dst[order]


class UniformGrid:
    """Hash-grid over a fixed point array.

    Parameters
    ----------
    points:
        ``(n, d)`` array, held by reference.
    cell_width:
        Edge length of the hypercube cells.
    counters:
        Optional shared work counters.
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_width: float,
        counters: Counters | None = None,
    ) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {self.points.shape}")
        if cell_width <= 0.0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        self.cell_width = float(cell_width)
        self.counters = counters if counters is not None else Counters()
        n, d = self.points.shape
        self.dim = d
        if n:
            self._origin = self.points.min(axis=0)
            coords = np.floor((self.points - self._origin) / self.cell_width).astype(
                np.int64
            )
        else:
            self._origin = np.zeros(d)
            coords = np.empty((0, d), dtype=np.int64)
        self._coords = coords
        buckets: dict[tuple[int, ...], list[int]] = defaultdict(list)
        for i in range(n):
            buckets[tuple(coords[i])].append(i)
        self._cells: dict[tuple[int, ...], np.ndarray] = {
            key: np.asarray(rows, dtype=np.int64) for key, rows in buckets.items()
        }

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_cells(self) -> int:
        """Occupied cells (memory-consumption proxy for Table IV)."""
        return len(self._cells)

    def cell_of(self, i: int) -> tuple[int, ...]:
        """Cell key of indexed point ``i``."""
        return tuple(self._coords[i])

    def cells(self) -> dict[tuple[int, ...], np.ndarray]:
        """Mapping cell key -> row indices (live view, do not mutate)."""
        return self._cells

    def cell_members(self, key: tuple[int, ...]) -> np.ndarray:
        """Rows in a cell (empty array when unoccupied)."""
        return self._cells.get(key, np.empty(0, dtype=np.int64))

    def neighbor_cell_keys(
        self, key: tuple[int, ...], reach: int
    ) -> list[tuple[int, ...]]:
        """Occupied cells within Chebyshev distance ``reach`` of ``key``
        (including ``key`` itself).

        The stencil enumerates ``(2*reach + 1) ** d`` offsets — the
        exponential-in-``d`` cost the paper criticizes in grid methods.
        Enumeration is over the stencil or the occupied set, whichever
        is smaller, so low-dimensional queries stay fast without
        changing the returned set.
        """
        if reach < 0:
            raise ValueError(f"reach must be >= 0, got {reach}")
        stencil_size = (2 * reach + 1) ** self.dim
        self.counters.nodes_visited += min(stencil_size, len(self._cells))
        if stencil_size <= len(self._cells):
            out = []
            for offset in itertools.product(range(-reach, reach + 1), repeat=self.dim):
                cand = tuple(k + o for k, o in zip(key, offset))
                if cand in self._cells:
                    out.append(cand)
            return out
        center = np.asarray(key, dtype=np.int64)
        return [
            cand
            for cand in self._cells
            if np.max(np.abs(np.asarray(cand, dtype=np.int64) - center)) <= reach
        ]

    def candidates_near(self, q: np.ndarray, radius: float) -> np.ndarray:
        """Rows of all points in cells a ball ``B(q, radius)`` may touch."""
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        q = np.asarray(q, dtype=np.float64)
        reach = int(np.ceil(radius / self.cell_width))
        key = tuple(np.floor((q - self._origin) / self.cell_width).astype(np.int64))
        keys = self.neighbor_cell_keys(key, reach)
        if not keys:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self._cells[k] for k in keys])

    def query_ball(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Row indices strictly within ``eps`` of ``q``."""
        rows = self.candidates_near(q, eps)
        if rows.size == 0:
            return rows
        self.counters.dist_calcs += int(rows.size)
        sq = sq_dists_to_point(self.points[rows], q)
        return rows[sq < eps * eps]

    def count_ball(self, q: np.ndarray, eps: float) -> int:
        return int(self.query_ball(q, eps).shape[0])


class CenterGrid:
    """Incremental hash-grid over micro-cluster centers.

    The grid-hash builder appends centers as Algorithm 3 creates them
    and, per block of scan points, gathers every center whose ε-box a
    search ball could touch — a conservative superset shortlist, exactly
    like the first-level R-tree's role, but answerable for a whole block
    with array ops instead of one Python tree walk per point.

    Unlike :class:`UniformGrid` (fixed point set, built once), this
    structure grows: ``insert()`` buckets new centers by cell, and the
    occupied-cell views used by the gather are rebuilt lazily only when
    the cell population changed since the last block.
    """

    def __init__(self, origin: np.ndarray, cell_width: float, dim: int) -> None:
        if cell_width <= 0.0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.origin = np.asarray(origin, dtype=np.float64).reshape(dim)
        self.cell_width = float(cell_width)
        self.dim = dim
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._n = 0
        self._occ_coords: np.ndarray | None = None
        self._occ_buckets: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return self._n

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def coords(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates of ``points``, ``(k, d)`` int64.

        Centers *are* scan points, so using one formula (and one origin)
        for both sides keeps the point-cell/center-cell relationship
        consistent to within the ±1 rounding slack the gather's safety
        ring absorbs.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.floor((pts - self.origin) / self.cell_width).astype(np.int64)

    def insert(self, first_id: int, centers: np.ndarray) -> None:
        """Bucket centers ``first_id .. first_id + k - 1`` by cell."""
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if centers.shape[0] == 0:
            return
        cc = self.coords(centers)
        for i in range(cc.shape[0]):
            self._cells.setdefault(tuple(cc[i]), []).append(first_id + i)
        self._n += centers.shape[0]
        self._occ_coords = None
        self._occ_buckets = None

    def occupied(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(coords, buckets)`` over occupied cells — ``coords`` is the
        ``(n_cells, d)`` int64 stack and ``buckets[i]`` the center ids in
        cell ``i`` (ascending: ids are appended in creation order)."""
        if self._occ_coords is None or self._occ_buckets is None:
            if self._cells:
                self._occ_coords = np.asarray(list(self._cells), dtype=np.int64)
                self._occ_buckets = [
                    np.asarray(ids, dtype=np.int64) for ids in self._cells.values()
                ]
            else:
                self._occ_coords = np.empty((0, self.dim), dtype=np.int64)
                self._occ_buckets = []
        return self._occ_coords, self._occ_buckets
