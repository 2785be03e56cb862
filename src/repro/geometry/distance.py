"""Vectorized Euclidean distance kernels.

All kernels operate on squared distances.  The reproduction fixes the
neighborhood semantics to *strict* inequality (``dist < eps``) with the
query point included in its own neighborhood, matching the paper's
``DIST(p, q) < eps`` definition; every caller therefore compares the
values returned here against ``eps ** 2`` with ``<``.

The kernels are written for the regime this codebase lives in: ``n`` up
to a few hundred thousand points, dimensionality up to ~100.  Pairwise
blocks are computed with the usual ``|x|^2 + |y|^2 - 2 x.y`` expansion
which hits BLAS, and a chunked driver bounds peak memory for large
``n x n`` sweeps.  The expansion runs on coordinates taken relative to
one row of the inputs: far from the origin, ``|x|^2`` is rounded far
more coarsely than the difference it is meant to recover (10⁷ from the
origin in 3-D, to a multiple of 1/16, against an ε² of 1).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

__all__ = [
    "pairwise_sq_dists",
    "pairwise_sq_dists_stable",
    "sq_dists_to_point",
    "sq_dist",
    "neighbors_within",
    "count_within",
    "chunked_pairwise_apply",
    "require_finite",
]


def require_finite(points: np.ndarray, what: str = "points") -> None:
    """Raise ``ValueError`` naming the first row of the ``(n, d)`` array
    ``points`` that holds a NaN or ±inf.

    Every distance bound and grid-cell hash assumes finite coordinates,
    so the fit entry points call this before any of them runs."""
    finite = np.isfinite(points)
    if finite.all():
        return
    row = int(np.argmin(finite.all(axis=1)))
    value = points[row][~finite[row]][0]
    raise ValueError(f"{what} must be finite: row {row} holds {value}")


def _as2d(points: np.ndarray) -> np.ndarray:
    """Coerce ``points`` to a C-contiguous float64 ``(n, d)`` array."""
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a (n, d) point array, got shape {arr.shape}")
    return arr


def sq_dist(p: np.ndarray, q: np.ndarray) -> float:
    """Squared Euclidean distance between two single points."""
    diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return float(np.dot(diff, diff))


def sq_dists_to_point(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of ``points`` to the point ``q``.

    Uses the direct ``sum((x - q)^2)`` form: for a single query the
    expansion trick saves nothing and loses precision.
    """
    pts = _as2d(points)
    qv = np.asarray(q, dtype=np.float64).reshape(-1)
    if qv.shape[0] != pts.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {pts.shape[1]}-d, query is {qv.shape[0]}-d"
        )
    diff = pts - qv
    return np.einsum("ij,ij->i", diff, diff)


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Dense squared-distance matrix between row sets ``a`` and ``b``.

    ``b`` defaults to ``a``.  Negative values from floating cancellation
    are clipped to zero so callers can take square roots safely.  Both
    sides are shifted by the first row of ``a`` before expanding, which
    leaves every difference unchanged and keeps the norms small.
    """
    a2d = _as2d(a)
    b2d = a2d if b is None else _as2d(b)
    if a2d.shape[1] != b2d.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a2d.shape[1]}-d vs {b2d.shape[1]}-d points"
        )
    if a2d.shape[0]:
        ref = a2d[0]
        b2d = b2d - ref
        a2d = b2d if b is None else a2d - ref
    a_norms = np.einsum("ij,ij->i", a2d, a2d)
    b_norms = a_norms if b is None else np.einsum("ij,ij->i", b2d, b2d)
    out = a_norms[:, None] + b_norms[None, :] - 2.0 * (a2d @ b2d.T)
    np.maximum(out, 0.0, out=out)
    if b is None:
        np.fill_diagonal(out, 0.0)
    return out


#: row-chunk the stable pairwise kernel when the (rows, |b|, d) diff
#: temporary would exceed this many float64 elements (~256 MB)
_STABLE_TEMP_ELEMS = 32_000_000


def pairwise_sq_dists_stable(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared-distance matrix via the direct ``sum((x - y)^2)`` form.

    Unlike :func:`pairwise_sq_dists`, each entry depends only on the two
    rows involved — never on the shape of the block it was computed in —
    so the same point pair yields the *bit-identical* value whether it
    is evaluated inside a 1-row or a 10k-row block.  The brute-force
    prediction oracle relies on this, so that pruned prediction, which
    scores the same direct form per pair, reproduces it exactly even
    for queries engineered to sit on the ε boundary.

    Peak memory is bounded internally: the ``|a| * |b| * d`` diff
    temporary is computed in row chunks when it would grow past a fixed
    budget — per-pair values are row-independent, so chunking cannot
    change a single bit of the output.
    """
    a2d = _as2d(a)
    b2d = _as2d(b)
    if a2d.shape[1] != b2d.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a2d.shape[1]}-d vs {b2d.shape[1]}-d points"
        )
    n_a, d = a2d.shape
    n_b = b2d.shape[0]
    per_row = max(1, n_b * d)
    if n_a * per_row <= _STABLE_TEMP_ELEMS:
        diff = a2d[:, None, :] - b2d[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)
    out = np.empty((n_a, n_b), dtype=np.float64)
    chunk = max(1, _STABLE_TEMP_ELEMS // per_row)
    for start in range(0, n_a, chunk):
        diff = a2d[start : start + chunk, None, :] - b2d[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start : start + diff.shape[0]])
    return out


def neighbors_within(points: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """Indices (into ``points``) of rows strictly within ``eps`` of ``q``."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    sq = sq_dists_to_point(points, q)
    return np.flatnonzero(sq < eps * eps)


def count_within(points: np.ndarray, q: np.ndarray, eps: float) -> int:
    """Number of rows of ``points`` strictly within ``eps`` of ``q``."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    sq = sq_dists_to_point(points, q)
    return int(np.count_nonzero(sq < eps * eps))


def chunked_pairwise_apply(
    a: np.ndarray,
    b: np.ndarray,
    fn: Callable[[int, np.ndarray], None],
    chunk_rows: int = 2048,
) -> None:
    """Stream the ``|a| x |b|`` squared-distance matrix in row blocks.

    Calls ``fn(row_offset, block)`` for each block of squared distances,
    where ``block`` has shape ``(rows, |b|)``.  Bounds peak memory to
    ``chunk_rows * |b|`` doubles — the pattern the brute-force baseline
    uses for its full ``n x n`` sweep.  As in :func:`pairwise_sq_dists`,
    both sides are shifted by one reference row (the first row of ``b``,
    the same for every chunk) before expanding.
    """
    a2d = _as2d(a)
    b2d = _as2d(b)
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    ref = b2d[0] if b2d.shape[0] else np.zeros(b2d.shape[1])
    b2d = b2d - ref
    b_norms = np.einsum("ij,ij->i", b2d, b2d)
    for start in range(0, a2d.shape[0], chunk_rows):
        block_pts = a2d[start : start + chunk_rows] - ref
        a_norms = np.einsum("ij,ij->i", block_pts, block_pts)
        block = a_norms[:, None] + b_norms[None, :] - 2.0 * (block_pts @ b2d.T)
        np.maximum(block, 0.0, out=block)
        fn(start, block)


def iter_neighbor_lists(
    points: np.ndarray, eps: float, chunk_rows: int = 2048
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(index, neighbor_indices)`` for every point, chunked.

    Convenience generator over :func:`chunked_pairwise_apply` used by the
    reference implementation and by tests.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    pts = _as2d(points)
    eps_sq = eps * eps
    results: list[tuple[int, np.ndarray]] = []

    def collect(offset: int, block: np.ndarray) -> None:
        mask = block < eps_sq
        for r in range(block.shape[0]):
            results.append((offset + r, np.flatnonzero(mask[r])))

    for start in range(0, pts.shape[0], chunk_rows):
        results.clear()
        chunked_pairwise_apply(pts[start : start + chunk_rows], pts, collect, chunk_rows)
        for local_idx, nbrs in results:
            yield start + local_idx, nbrs
