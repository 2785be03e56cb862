"""Step 1b of μDBSCAN — Algorithm 4 (PROCESS-MICRO-CLUSTERS).

Each micro-cluster is classified and yields preliminary clusters:

* **DMC** — every inner-circle point is core *without a query*
  (Lemma 1: IC pairwise distances are < ε, so each IC point already has
  ``|IC| >= MinPts`` neighbors).  All members merge with the center;
  members outside the IC ride along as provisional borders (they are
  within ε of the core center, hence at least border).
* **CMC** — the center alone is provably core (Lemma 2: the whole MC
  lies in its ε-ball).  All members merge with the center.
* **SMC** — nothing can be concluded; members await Algorithm 6.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import MuDBSCANState

__all__ = ["process_micro_clusters"]


def process_micro_clusters(state: MuDBSCANState) -> None:
    """Run Algorithm 4 over every micro-cluster, in MC-id order.

    Kinds come from the member and inner-circle sizes; each DMC or CMC
    merges its members into its center with one
    :meth:`MuDBSCANState.union_many` call (the founder leads its member
    list, so the rest are the other members)."""
    tree = state.murtree
    dmc, cmc = tree.mc_kinds(state.params.min_pts)
    bounds = tree.member_offsets.tolist()
    ic_bounds = tree.ic_offsets.tolist()
    centers = tree.center_rows.tolist()
    for k, is_dmc in zip(np.flatnonzero(dmc | cmc).tolist(), dmc[dmc | cmc].tolist()):
        center = centers[k]
        if is_dmc:
            for row in tree.ic_flat[ic_bounds[k] : ic_bounds[k + 1]].tolist():
                state.mark_wndq_core(row)
        else:
            state.mark_wndq_core(center)
        state.union_many(center, tree.member_flat[bounds[k] + 1 : bounds[k + 1]])
        state.assigned[center] = True
