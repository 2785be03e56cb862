"""Sort-Tile-Recursive (STR) bulk loading for the R-tree.

Dynamic Guttman insertion costs an R-tree descent plus occasional splits
per point; when the point set is known up front (AuxR-trees are built
after their micro-cluster's membership is final) a static packing is
both faster to build and better clustered.  STR (Leutenegger et al.)
sorts by the first coordinate, slices into vertical slabs, recursively
tiles each slab on the remaining coordinates, and packs runs of ``C``
entries per node; upper levels are packed the same way over node MBRs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.index.rtree import RTree, _Node

__all__ = ["str_bulk_load"]


def _tile(
    idx: np.ndarray, centers: np.ndarray, dim_i: int, dims_left: int, cap: int
) -> list[np.ndarray]:
    """Partition ``idx`` into groups of at most ``cap`` spatially-close rows."""
    n = idx.shape[0]
    if n <= cap:
        return [idx]
    order = idx[np.argsort(centers[idx, dim_i], kind="stable")]
    if dims_left <= 1:
        return [order[i : i + cap] for i in range(0, n, cap)]
    pages = math.ceil(n / cap)
    slabs = math.ceil(pages ** (1.0 / dims_left))
    slab_rows = math.ceil(n / slabs)
    next_dim = (dim_i + 1) % centers.shape[1]
    groups: list[np.ndarray] = []
    for start in range(0, n, slab_rows):
        groups.extend(
            _tile(order[start : start + slab_rows], centers, next_dim, dims_left - 1, cap)
        )
    return groups


def str_bulk_load(
    tree: RTree,
    lows: np.ndarray,
    highs: np.ndarray,
    payloads: np.ndarray | None = None,
) -> None:
    """Pack rectangles into ``tree``, replacing its current contents.

    Parameters
    ----------
    tree:
        A (typically fresh) :class:`RTree`; its capacity and dimension
        are honoured.
    lows, highs:
        ``(n, d)`` rectangle bounds.  For point data pass the points as
        both.
    payloads:
        Integer keys per rectangle; defaults to ``0..n-1``.
    """
    lows = np.ascontiguousarray(lows, dtype=np.float64)
    highs = np.ascontiguousarray(highs, dtype=np.float64)
    if lows.ndim != 2 or lows.shape != highs.shape:
        raise ValueError(
            f"lows/highs must be matching (n, d) arrays, got {lows.shape} / {highs.shape}"
        )
    n, dim = lows.shape
    if dim != tree.dim:
        raise ValueError(f"tree is {tree.dim}-d but rectangles are {dim}-d")
    if payloads is None:
        payloads = np.arange(n, dtype=np.int64)
    else:
        payloads = np.asarray(payloads, dtype=np.int64)
        if payloads.shape != (n,):
            raise ValueError(f"payloads must have shape ({n},), got {payloads.shape}")
    cap = tree.max_entries
    if n == 0:
        tree._set_root(_Node(dim, cap, leaf=True), 0)
        return

    centers = (lows + highs) * 0.5
    groups = _tile(np.arange(n, dtype=np.int64), centers, 0, dim, cap)
    level: list[_Node] = []
    for group in groups:
        node = _Node(dim, cap, leaf=True)
        for row in group:
            node.add(lows[row], highs[row], int(payloads[row]))
        level.append(node)

    # pack upper levels over node MBRs until a single root remains
    while len(level) > 1:
        node_lows = np.stack([nd.entry_mbr()[0] for nd in level])
        node_highs = np.stack([nd.entry_mbr()[1] for nd in level])
        node_centers = (node_lows + node_highs) * 0.5
        groups = _tile(
            np.arange(len(level), dtype=np.int64), node_centers, 0, dim, cap
        )
        next_level: list[_Node] = []
        for group in groups:
            parent = _Node(dim, cap, leaf=False)
            for row in group:
                child = level[int(row)]
                parent.add(node_lows[row], node_highs[row], child)
            next_level.append(parent)
        level = next_level

    tree._set_root(level[0], n)

