"""Mutable run state shared by μDBSCAN's four steps.

Algorithms 4, 6, 7 and 8 communicate through per-point flag arrays, the
union-find structure, the ``wndqCorelist`` and the ``noiseList`` — this
module is that shared state, so each step lives in its own module
without circular imports.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import DBSCANParams
from repro.instrumentation.counters import Counters
from repro.microcluster.murtree import MuRTree
from repro.unionfind.unionfind import UnionFind

__all__ = ["MuDBSCANState"]


class MuDBSCANState:
    """Per-run working state of μDBSCAN.

    Flag semantics (all over global dataset rows):

    * ``core``     — known to be a core point.
    * ``wndq``     — declared core *without* a neighborhood query
      (Algorithm 4 statically, Algorithm 6 step (iii) dynamically);
      implies ``core``.  The ε-query of such a point is skipped.
    * ``queried``  — its ε-neighborhood query was executed.
    * ``assigned`` — has been merged into some cluster (the guard that
      keeps already-placed border points from being re-merged, which is
      what preserves classical DBSCAN's first-come border semantics).
    """

    def __init__(
        self,
        murtree: MuRTree,
        params: DBSCANParams,
        counters: Counters,
    ) -> None:
        n = len(murtree)
        self.murtree = murtree
        self.params = params
        self.counters = counters
        # metric-raw thresholds (squared for Euclidean): compare against
        # the raw values murtree.query_ball returns
        self.eps_raw = murtree.metric.threshold(params.eps)
        self.half_eps_raw = murtree.metric.threshold(params.eps * 0.5)
        self.uf = UnionFind(n, counters=counters)
        self.core = np.zeros(n, dtype=bool)
        self.wndq = np.zeros(n, dtype=bool)
        self.queried = np.zeros(n, dtype=bool)
        self.assigned = np.zeros(n, dtype=bool)
        #: rows declared core without a query, in declaration order
        self.wndq_corelist: list[int] = []
        #: provisional-noise row -> its stored ε-neighborhood
        self.noise_nbrs: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.murtree)

    def mark_wndq_core(self, row: int) -> None:
        """Declare ``row`` core without a query and queue it for
        Algorithm 7's connection repair."""
        if not self.wndq[row]:
            self.wndq[row] = True
            self.core[row] = True
            self.wndq_corelist.append(int(row))

    def union(self, x: int, y: int) -> None:
        """Merge clusters of ``x`` and ``y``; both become assigned."""
        self.uf.union(int(x), int(y))
        self.assigned[x] = True
        self.assigned[y] = True

    def union_many(self, x: int, others: np.ndarray) -> None:
        """Merge ``x`` with every row of ``others`` in one star
        (:meth:`UnionFind.union_many`) — the same roots, ``unions`` count
        and ``assigned`` flags as ``union(x, q)`` in sequence."""
        if not others.size:
            return
        self.uf.union_many(x, others)
        self.assigned[x] = True
        self.assigned[others] = True

    def postprocess_candidate_mask(self, candidates: np.ndarray) -> np.ndarray:
        """Which Algorithm-7 candidates a wndq-core may merge with
        (non-batched path).

        Sequentially that is exactly the known cores.  The distributed
        state widens it to halo points whose core status is only known
        to their owner (the global merge applies the real flags).
        """
        return self.core[candidates]

    def postprocess_unknown_mask(self, candidates: np.ndarray) -> np.ndarray:
        """Algorithm-7 candidates of *unknown* core status (batched path).

        Empty sequentially — every local point's status is known.  The
        distributed state returns its non-locally-core halo candidates,
        which get forwarded to the global merge instead of unioned.
        """
        return np.zeros(candidates.shape[0], dtype=bool)

    def final_noise_mask(self) -> np.ndarray:
        """Noise = provisionally-noise points that were never rescued
        and never promoted to core."""
        mask = np.zeros(self.n, dtype=bool)
        for row in self.noise_nbrs:
            if not self.assigned[row] and not self.core[row]:
                mask[row] = True
        return mask
