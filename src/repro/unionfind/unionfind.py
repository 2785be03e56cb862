"""List-backed union-find with path halving and smallest-root linking.

The merging workhorse of every algorithm in the repository (Algorithm
1's ``UNION`` and all of μDBSCAN's merge steps), and the only module
that knows its representation.  Every merge links the larger root under
the smaller, so each root is its set's smallest element and roots do
not depend on the order of unions: a star (``union_many``), an edge
batch (``union_edges``) and a loop of ``union`` over the same pairs
leave identical roots, set counts and ``unions`` counters.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.instrumentation.counters import Counters

__all__ = ["UnionFind", "dense_first_appearance"]


def dense_first_appearance(point_comp: np.ndarray) -> np.ndarray:
    """Dense ``0..k-1`` labels from arbitrary component ids (``-1`` =
    noise), renumbered in order of first appearance — the determinism
    rule of every labelling in the repository."""
    labels = np.full(point_comp.shape[0], -1, dtype=np.int64)
    valid = point_comp >= 0
    uniq, first, inv = np.unique(point_comp[valid], return_index=True, return_inverse=True)
    rank = np.empty(uniq.shape[0], dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.shape[0])
    labels[valid] = rank[inv]
    return labels


class UnionFind:
    """Disjoint sets over ``0..n-1``.

    Parameters
    ----------
    n:
        Number of elements; each starts in its own singleton set.
    counters:
        Optional shared counters; each effective merge bumps ``unions``.
    """

    def __init__(self, n: int, counters: Counters | None = None) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        # plain Python list: find/union run from interpreted loops, where
        # list indexing is several times cheaper than numpy scalar indexing
        self._parent = list(range(n))
        self._n_sets = n
        self.counters = counters if counters is not None else Counters()

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_sets(self) -> int:
        """Current number of disjoint sets."""
        return self._n_sets

    def extend(self, k: int) -> np.ndarray:
        """Append ``k`` singletons; returns their ids."""
        start = len(self._parent)
        self._parent.extend(range(start, start + k))
        self._n_sets += k
        return np.arange(start, start + k, dtype=np.int64)

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; True when they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._n_sets -= 1
        self.counters.unions += 1
        return True

    def union_many(self, x: int, others: np.ndarray) -> int:
        """Merge ``x`` with every element of ``others`` (a star).

        An element and its parent are in one set, so merging ``x`` with
        each distinct parent is merging it with each element: the
        parents are read in one C-level lookup and deduplicated in a
        set, then each gets one find and one union.
        """
        rows = others.tolist()
        if not rows:
            return 0
        parent = self._parent
        heads = {parent[rows[0]]} if len(rows) == 1 else set(itemgetter(*rows)(parent))
        rx = self.find(int(x))
        effective = 0
        for ry in heads:
            while parent[ry] != ry:
                parent[ry] = ry = parent[parent[ry]]
            if ry == rx:
                continue
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            effective += 1
        self._n_sets -= effective
        self.counters.unions += effective
        return effective

    def union_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Merge the sets of ``src[i]`` and ``dst[i]`` for every ``i``,
        as a loop of :meth:`union` would in any order.

        One array pass, O(n + E), so callers pass a whole phase's edges
        at once: endpoint roots by pointer jumping, edges inside one set
        dropped, then each component of the root graph links under its
        smallest root.
        """
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        if src.shape != dst.shape:
            raise ValueError(
                f"src and dst must have equal lengths, got {src.size} and {dst.size}"
            )
        if not src.size:
            return 0
        parent = self._jumped()
        a, b = parent[src], parent[dst]
        apart = a != b
        if not apart.any():
            return 0
        a, b = a[apart], b[apart]
        n = parent.size
        graph = sparse.csr_matrix((np.ones(a.size, dtype=np.int8), (a, b)), shape=(n, n))
        n_comp, comp = connected_components(graph, directed=False)
        ends = np.concatenate([a, b])
        smallest = np.full(n_comp, n, dtype=np.int64)
        np.minimum.at(smallest, comp[ends], ends)
        parent[ends] = smallest[comp[ends]]
        self._parent = parent.tolist()
        effective = n - n_comp  # each effective merge joins two components
        self._n_sets -= effective
        self.counters.unions += effective
        return effective

    def connected(self, x: int, y: int) -> bool:
        """Whether ``x`` and ``y`` are currently in the same set."""
        return self.find(x) == self.find(y)

    def _jumped(self) -> np.ndarray:
        """Parent array compressed by O(log n) rounds of pointer jumping."""
        parent = np.asarray(self._parent, dtype=np.int64)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent
            parent = grand

    def roots(self) -> np.ndarray:
        """Representative of every element, fully compressed (vectorized)."""
        parent = self._jumped()
        self._parent = parent.tolist()  # keep the compression
        return parent

    def labels(self, noise_mask: np.ndarray | None = None) -> np.ndarray:
        """Dense cluster labels ``0..k-1`` numbered by first appearance;
        ``-1`` where ``noise_mask``, whatever the element's set."""
        roots = self.roots()
        if noise_mask is not None:
            roots[np.asarray(noise_mask, dtype=bool)] = -1
        return dense_first_appearance(roots)
