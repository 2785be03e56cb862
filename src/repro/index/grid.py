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

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.geometry.distance import sq_dists_to_point
from repro.instrumentation.counters import Counters

__all__ = [
    "NO_ID",
    "CellGroups",
    "UniformGrid",
    "cell_order",
    "cell_width",
    "concat_ranges",
    "csr_from_parts",
    "hash_cells",
    "neighbor_cells",
    "neighbor_members",
    "pair_passes",
    "run_minima",
    "run_starts",
]

#: element budget of one lookup chunk in :func:`neighbor_cells` — bounds
#: its largest temporary (int64 probes or differences) to 4 MiB
_NEIGHBOR_TEMP_ELEMS = 1 << 19

#: elements one :func:`pair_passes` pass holds at most by default —
#: bounds the ``(pairs, d)`` temporaries of the pair kernels that score
#: a pass (prediction, streaming neighborhoods) whatever the batch
_PAIR_BUDGET = 1 << 16

#: cell pairs one chunk of :meth:`CellGroups.join` may lay out — bounds
#: its neighbour lists (2 MiB per int64 array) however many of the
#: queried cells are adjacent, as in high dimensions nearly all are
_JOIN_CELL_PAIRS = 1 << 18

#: sentinel id, larger than any row or micro-cluster id
NO_ID = np.iinfo(np.int64).max


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque, totally ordered key per int64 row: the row's bytes
    as a ``void`` scalar.  Nothing is linearised, so no key can overflow
    however many cells each axis spans."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).reshape(-1)


def cell_width(reach: float, scale: float) -> float:
    """The width :func:`hash_cells` gives cells that must hold every
    pair of points within ``reach`` per axis in the same or adjacent
    cells, for points whose largest |coordinate| is ``scale``."""
    return reach * (1.0 + 2.0**-20) + 2.0**-40 * scale


def hash_cells(
    points: np.ndarray, reach: float, *, scale: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Hash the ``(n, d)`` ``points`` into cubic cells a little wider
    than ``reach``; returns the distinct ``(k, d)`` int64 cells and each
    point's index into them.

    Points whose coordinates differ by at most ``reach`` per axis lie in
    the same or adjacent cells, even when that was judged through
    floating-point arithmetic: the relative widening (2**-20) absorbs
    its rounding, the absolute one (2**-40 of the largest |coordinate|)
    rounding that grows with magnitude.  The latter also keeps every
    cell coordinate within ±2**40, so nothing overflows.

    ``scale`` fixes that largest |coordinate| (default: the largest of
    ``points``), so that point sets hashed separately with the same
    ``reach`` and ``scale`` share one width (:func:`cell_width`) and
    thus one grid; coordinates must then stay within a few cell widths
    of ``scale`` for the ±2**40 bound to hold.
    """
    if scale is None:
        scale = float(np.abs(points).max()) if points.size else 0.0
    width = cell_width(reach, scale)
    coords = np.floor(points / width).astype(np.int64)
    order = np.lexsort(coords.T)  # one sort over int columns, not row structs
    coords = coords[order]
    head = np.ones(order.shape[0], dtype=bool)
    head[1:] = (coords[1:] != coords[:-1]).any(axis=1)
    cell_of = np.empty(order.shape[0], dtype=np.int64)
    cell_of[order] = np.cumsum(head) - 1
    return coords[head], cell_of


def cell_order(cells: np.ndarray) -> np.ndarray:
    """The order :func:`neighbor_cells` sorts its ``others`` cells in;
    pass it back as ``others_order`` when one set of cells is joined
    against many times."""
    return np.argsort(_row_keys(cells), kind="stable")


@functools.cache
def _stencil(d: int) -> np.ndarray:
    """The ``(3 ** d, d)`` neighbour offsets, row-major over ``(-1, 0, 1)``;
    C-contiguous, so probes are not copied, and read-only, as it is shared."""
    offsets = np.ascontiguousarray(np.indices((3,) * d).reshape(d, -1).T - 1)
    offsets.flags.writeable = False
    return offsets


def neighbor_cells(
    cells: np.ndarray,
    others: np.ndarray | None = None,
    *,
    others_order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cells of ``others`` adjacent to each of ``cells`` (Chebyshev
    distance ≤ 1, an equal cell included), in any dimension.

    ``cells`` and ``others`` are ``(k, d)`` and ``(k_o, d)`` int64 stacks
    of *distinct* cell coordinates; ``others`` defaults to ``cells``, the
    self-join.  Returns CSR arrays ``(indptr, nbrs)``: the neighbours of
    ``cells[i]`` are ``others[nbrs[indptr[i]:indptr[i + 1]]]``, ascending
    indices.

    :meth:`UniformGrid.neighbor_cell_keys`'s rule, vectorised over all
    cells at once: when the ``3 ** d`` stencil is no larger than
    ``others``, every stencil offset is looked up in the sorted keys of
    ``others`` with ``searchsorted``; otherwise each cell is compared
    against the whole of ``others``.  Both run in chunks of
    ``_NEIGHBOR_TEMP_ELEMS`` elements.  ``others_order``, when given,
    is :func:`cell_order` of ``others``, so the stencil lookup does not
    sort them again.
    """
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise ValueError(f"cells must be (k, d), got shape {cells.shape}")
    others = cells if others is None else np.ascontiguousarray(others, dtype=np.int64)
    if others.ndim != 2 or others.shape[1] != cells.shape[1]:
        raise ValueError(f"others must be (k_o, {cells.shape[1]}), got {others.shape}")
    k, d = cells.shape
    k_o = others.shape[0]
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    if k and 3**d <= k_o:
        order = cell_order(others) if others_order is None else others_order
        sorted_keys = _row_keys(others)[order]
        offsets = _stencil(d)
        step = max(1, _NEIGHBOR_TEMP_ELEMS // (k * d))
        for s in range(0, offsets.shape[0], step):
            off = offsets[s : s + step]
            probes = _row_keys((cells[:, None, :] + off[None, :, :]).reshape(-1, d))
            pos = np.minimum(np.searchsorted(sorted_keys, probes), k_o - 1)
            found = np.flatnonzero(sorted_keys[pos] == probes)
            src_parts.append(found // off.shape[0])
            dst_parts.append(order[pos[found]])
    elif k and k_o:
        # compare on the first axis, then narrow the surviving pairs one
        # axis at a time: far cells drop out after a few axes
        axes, other_axes = np.ascontiguousarray(cells.T), np.ascontiguousarray(others.T)
        step = max(1, _NEIGHBOR_TEMP_ELEMS // k_o)
        for s in range(0, k, step):
            diff = axes[0, s : s + step, None] - other_axes[0, None, :]
            i, j = np.nonzero(np.abs(diff, out=diff) <= 1)
            i += s
            for col, other_col in zip(axes[1:], other_axes[1:]):
                keep = np.abs(col[i] - other_col[j]) <= 1
                i, j = i[keep], j[keep]
            src_parts.append(i)
            dst_parts.append(j)
    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    order = np.lexsort((dst, src))
    return np.searchsorted(src[order], np.arange(k + 1)), dst[order]


def neighbor_members(
    indptr: np.ndarray,
    nbrs: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    members: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten :func:`neighbor_cells`' CSR into member ids: with the
    members of cell ``c`` at ``members[first[c]:first[c] + count[c]]``,
    the members of every neighbour of cell ``i`` are ``flat[start[i]:
    start[i + 1]]`` in the returned ``(start, flat)``."""
    seg = count[nbrs]
    seg_end = np.zeros(seg.size + 1, dtype=np.int64)
    np.cumsum(seg, out=seg_end[1:])
    return seg_end[indptr], np.take(members, concat_ranges(first[nbrs], seg))


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[k] .. starts[k] + lengths[k] - 1`` one after
    another, as one int64 array: a cumulative sum of unit steps that
    jumps to ``starts[k]`` where range ``k`` begins, so the output is
    the only large array made."""
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    total = int(lengths.sum())
    out = np.ones(total, dtype=np.int64)
    if total:
        out[0] = starts[0]
        out[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(out, out=out)
    return out


def pair_passes(
    owner: np.ndarray, starts: np.ndarray, lengths: np.ndarray, budget: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Lay the ranges ``starts[j] .. starts[j] + lengths[j] - 1`` one
    after another and cut them into passes of at most ``budget``
    elements (default ``_PAIR_BUDGET``, read when the first pass is
    made); yields each pass's ``(owner of each element, element)``.
    A range may be split between passes."""
    budget = _PAIR_BUDGET if budget is None else budget
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    if total <= budget:  # the common case, a single pass
        if total:
            yield np.repeat(owner, lengths), concat_ranges(starts, lengths)
        return
    begins = ends - lengths
    for a in range(0, total, budget):
        b = min(a + budget, total)
        i = int(np.searchsorted(ends, a, side="right"))
        j = int(np.searchsorted(begins, b, side="left"))
        lo = np.maximum(begins[i:j], a)
        n = np.minimum(ends[i:j], b) - lo
        yield (
            np.repeat(owner[i:j], n),
            concat_ranges(starts[i:j] + (lo - begins[i:j]), n),
        )


@dataclass(frozen=True)
class CellGroups:
    """Ids grouped by their :func:`hash_cells` cell: ``cells[j]`` holds
    ``members[first[j]:first[j] + count[j]]``, ascending; ``order`` is
    :func:`cell_order` of ``cells``, sorted once for every join."""

    cells: np.ndarray
    order: np.ndarray
    first: np.ndarray
    count: np.ndarray
    members: np.ndarray

    @classmethod
    def of(cls, cells: np.ndarray, cell_of: np.ndarray) -> "CellGroups":
        """Group ids ``0 .. n - 1`` by ``cell_of``, their indices into
        the distinct ``cells``."""
        count = np.bincount(cell_of, minlength=cells.shape[0])
        return cls(
            cells=cells,
            order=cell_order(cells),
            first=np.cumsum(count) - count,
            count=count,
            members=np.argsort(cell_of, kind="stable"),
        )

    def join(
        self, q_cells: np.ndarray, q_cell: np.ndarray, owner: np.ndarray, budget=None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Pair each query, named ``owner[i]`` and lying in the cell
        ``q_cells[q_cell[i]]`` of this grid, with every id in the cells
        adjacent to it, its own included; yields the :func:`pair_passes`
        (``budget``) of ``(owner, id)`` pairs, query after query in input
        order.  The queries are joined in input-order chunks whose cell
        pairs, at most ``min(3 ** d, len(cells))`` per query cell, fit
        ``_JOIN_CELL_PAIRS`` (one chunk when all of them fit); the
        candidates of each of a chunk's query cells are laid out once,
        and each query reads its cell's range."""
        n = owner.shape[0]
        per_cell = min(3 ** self.cells.shape[1], self.cells.shape[0])
        step = max(n, 1)
        if q_cells.shape[0] * per_cell > _JOIN_CELL_PAIRS:
            step = max(1, _JOIN_CELL_PAIRS // per_cell)
        for a in range(0, n, step):
            if step < n:  # this chunk's query cells only
                used, local = np.unique(q_cell[a : a + step], return_inverse=True)
                here = q_cells[used]
            else:
                here, local = q_cells, q_cell
            indptr, nbrs = neighbor_cells(here, self.cells, others_order=self.order)
            start, cand = neighbor_members(
                indptr, nbrs, self.first, self.count, self.members
            )
            lengths = start[local + 1] - start[local]
            for o, pos in pair_passes(owner[a : a + step], start[local], lengths, budget):
                yield o, cand[pos]


def run_starts(ids: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in the non-empty ``ids``."""
    return np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))


def run_minima(
    owner: np.ndarray, raw: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per run of equal ``owner`` values (each owner's pairs adjacent):
    the owner, its smallest ``raw`` and the smallest of ``ids`` at that
    value — the nearest-then-lowest-id tie-break, as segment
    reductions."""
    if not owner.size:
        return owner, raw, ids
    run = run_starts(owner)
    low = np.minimum.reduceat(raw, run)
    at_low = raw == np.repeat(low, np.diff(run, append=raw.size))
    return owner[run], low, np.minimum.reduceat(np.where(at_low, ids, NO_ID), run)


def csr_from_parts(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a ragged list of int arrays as ``(offsets, flat)``: part
    ``k`` is ``flat[offsets[k]:offsets[k + 1]]``."""
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([p.shape[0] for p in parts], out=offsets[1:])
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return offsets, flat.astype(np.int64, copy=False)


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
