"""Global resolution of distributed union-find state.

In μDBSCAN-D each rank clusters its partition (plus ε-halo) with a
*local* union-find over global point ids and accumulates cross-partition
merge pairs ``(x, y)`` — ``x`` owned locally, ``y`` a halo point owned by
a remote rank (paper §V-C).  After local clustering the pairs are
exchanged and a consistent global components structure is derived.

Patwary et al. interleave the unions with message rounds on the real
distributed structure; here every rank already sees the gathered edge
lists after an ``allgather``, so they resolve in one
:meth:`~repro.unionfind.unionfind.UnionFind.union_edges` pass — the
same final components, with the communication volume still counted by
the caller.  :func:`repro.distributed.merging.resolve_fragments` feeds
its intra edges and kept cross pairs through here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.instrumentation.counters import Counters
from repro.unionfind.unionfind import UnionFind

__all__ = ["resolve_cross_edges", "GlobalLabeler"]


def resolve_cross_edges(
    n_global: int,
    intra_edges: Iterable[np.ndarray],
    cross_edges: Iterable[np.ndarray],
    counters: Counters | None = None,
) -> UnionFind:
    """Build the global union-find from per-rank edge lists.

    Parameters
    ----------
    n_global:
        Total number of points across all ranks (global ids are dense).
    intra_edges:
        Per-rank ``(k, 2)`` int arrays of unions performed during local
        clustering, expressed in *global* ids.
    cross_edges:
        Per-rank ``(k, 2)`` int arrays of cross-partition pairs.

    Returns
    -------
    A :class:`UnionFind` over ``0..n_global-1`` with all edges applied.
    """
    uf = UnionFind(n_global, counters=counters)
    batches = [np.empty((0, 2), dtype=np.int64)]
    for batch in list(intra_edges) + list(cross_edges):
        arr = np.asarray(batch, dtype=np.int64)
        if arr.size == 0:
            continue
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edge batches must be (k, 2), got shape {arr.shape}")
        if arr.min() < 0 or arr.max() >= n_global:
            raise ValueError("edge references a global id outside 0..n_global-1")
        batches.append(arr)
    edges = np.concatenate(batches)
    uf.union_edges(edges[:, 0], edges[:, 1])
    return uf


class GlobalLabeler:
    """Turns per-rank clustering fragments into one global labelling.

    Collects, for every rank: the global ids it owns, which of those are
    noise, and the edge lists.  ``finalize`` resolves everything into
    dense labels with ``-1`` noise, identical on every rank.
    """

    def __init__(self, n_global: int) -> None:
        if n_global < 0:
            raise ValueError(f"n_global must be >= 0, got {n_global}")
        self.n_global = n_global
        self._owned: list[np.ndarray] = []
        self._noise: list[np.ndarray] = []
        self._intra: list[np.ndarray] = []
        self._cross: list[np.ndarray] = []

    def add_rank(
        self,
        owned_gids: np.ndarray,
        noise_gids: np.ndarray,
        intra_edges: np.ndarray,
        cross_edges: np.ndarray,
    ) -> None:
        """Register one rank's fragment (call once per rank)."""
        self._owned.append(np.asarray(owned_gids, dtype=np.int64))
        self._noise.append(np.asarray(noise_gids, dtype=np.int64))
        self._intra.append(np.asarray(intra_edges, dtype=np.int64).reshape(-1, 2))
        self._cross.append(np.asarray(cross_edges, dtype=np.int64).reshape(-1, 2))

    def finalize(self, counters: Counters | None = None) -> np.ndarray:
        """Resolve and return global labels (``-1`` = noise).

        Every global id must be owned by exactly one rank.
        """
        if self._owned:
            all_owned = np.concatenate(self._owned)
        else:
            all_owned = np.empty(0, dtype=np.int64)
        if all_owned.shape[0] != self.n_global or (
            all_owned.size and (np.unique(all_owned).shape[0] != self.n_global)
        ):
            raise ValueError(
                "ownership is not a partition: expected each of "
                f"{self.n_global} ids exactly once, got {all_owned.shape[0]} "
                "ids with duplicates or gaps"
            )
        uf = resolve_cross_edges(self.n_global, self._intra, self._cross, counters)
        noise_mask = np.zeros(self.n_global, dtype=bool)
        for batch in self._noise:
            noise_mask[batch] = True
        return uf.labels(noise_mask=noise_mask)
