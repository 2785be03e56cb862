"""Global merge of local clusterings (paper §V-C).

Each rank's fragment is exchanged (one allgather — the only collective
of the merge, mirroring the paper's all-to-all of cross pairs), then
every rank deterministically resolves, in one array pass:

1. all intra-rank unions (owned↔owned, already legal),
2. the cross pairs in (rank, emission) order, interpreted under the
   *global* core flags:

   * both endpoints core  → union (a core-core ε-edge),
   * exactly one core     → border claim: the non-core endpoint joins
     the core's cluster of its first such pair iff its owner left it
     unassigned (classical DBSCAN's first-come border rule),
   * neither core         → no-op (e.g. a noise-rescue probe whose halo
     endpoint turned out non-core).

The kept pairs and the intra edges are then one edge batch for
:func:`~repro.unionfind.distributed.resolve_cross_edges`.  No
neighborhood query is executed here — the merge is pure union-find
traffic, which is why the paper's merge phase stays below ~4% of the
run (Table VII).
"""

from __future__ import annotations

import numpy as np

from repro.distributed.protocol import LocalFragment
from repro.instrumentation.counters import Counters
from repro.unionfind.distributed import resolve_cross_edges

__all__ = ["resolve_fragments", "MergeOutcome"]


class MergeOutcome:
    """Global labels plus the masks the result record needs."""

    __slots__ = ("labels", "core_mask", "assigned_mask", "n_cross_pairs")

    def __init__(
        self,
        labels: np.ndarray,
        core_mask: np.ndarray,
        assigned_mask: np.ndarray,
        n_cross_pairs: int,
    ) -> None:
        self.labels = labels
        self.core_mask = core_mask
        self.assigned_mask = assigned_mask
        self.n_cross_pairs = n_cross_pairs


def resolve_fragments(
    fragments: list[LocalFragment],
    n_global: int,
    counters: Counters | None = None,
) -> MergeOutcome:
    """Deterministically merge per-rank fragments into global labels."""
    counters = counters if counters is not None else Counters()
    core = np.zeros(n_global, dtype=bool)
    assigned = np.zeros(n_global, dtype=bool)
    seen = np.zeros(n_global, dtype=bool)
    for frag in fragments:
        if np.any(seen[frag.owned_gids]):
            raise ValueError("fragments overlap: a global id is owned twice")
        seen[frag.owned_gids] = True
        core[frag.owned_gids] = frag.core
        assigned[frag.owned_gids] = frag.assigned
    if not bool(seen.all()):
        missing = int(n_global - np.count_nonzero(seen))
        raise ValueError(f"fragments do not cover the dataset: {missing} ids unowned")

    empty = np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate([empty] + [np.asarray(f.cross_pairs, np.int64) for f in fragments])
    a, b = pairs[:, 0], pairs[:, 1]
    keep = core[a] & core[b]
    # border claims: the non-core endpoint of a one-core pair, if its
    # owner left it unassigned, joins the core of its first such pair
    one_core = core[a] ^ core[b]
    border = np.where(core[a], b, a)
    claimable = np.flatnonzero(one_core & ~assigned[border])
    _, first = np.unique(border[claimable], return_index=True)
    claims = claimable[first]
    keep[claims] = True
    assigned[border[claims]] = True
    uf = resolve_cross_edges(
        n_global, [f.intra_edges for f in fragments], [pairs[keep]], counters
    )

    labels = uf.labels(noise_mask=~core & ~assigned)
    return MergeOutcome(
        labels=labels,
        core_mask=core,
        assigned_mask=assigned,
        n_cross_pairs=int(pairs.shape[0]),
    )
