"""The local step of μDBSCAN-D — restricted μDBSCAN over owned + halo.

Runs the full sequential μDBSCAN machinery on the concatenation of a
rank's owned points and its ε-halo, with two ownership-aware twists
implemented by :class:`DistributedMuDBSCANState`:

* ``union(x, y)`` merges immediately only when both endpoints are
  owned; an owned↔halo merge is *deferred* as a cross pair for the
  global merge (the halo endpoint's true core/assignment status lives
  at its owner), and halo↔halo merges are dropped (both owners will
  handle them).
* Algorithm 7's candidate mask is widened to include halo candidates
  whatever their local core flag: a halo point that looks non-core here
  may be core globally, and the missing core-core edge would otherwise
  be lost by *both* ranks (each seeing the other's endpoint as
  non-core).  The merge applies the pair under global flags, so the
  widening never creates an illegal union.

After the run, every still-unassigned provisionally-noise owned point
emits pairs to its halo neighbors: one of them may be core globally,
which turns the point into that cluster's border (Algorithm 8's rescue,
distributed).
"""

from __future__ import annotations

import numpy as np

from repro.core.mudbscan import run_mu_dbscan_state
from repro.core.params import DBSCANParams
from repro.core.state import MuDBSCANState
from repro.distributed.protocol import LocalFragment
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.murtree import MuRTree

__all__ = ["DistributedMuDBSCANState", "run_local_mu_dbscan"]


class DistributedMuDBSCANState(MuDBSCANState):
    """Ownership-aware μDBSCAN state (see module docstring)."""


    def __init__(
        self,
        murtree: MuRTree,
        params: DBSCANParams,
        counters: Counters,
        owned: np.ndarray,
        gids: np.ndarray,
    ) -> None:
        super().__init__(murtree, params, counters)
        if owned.shape != (self.n,) or gids.shape != (self.n,):
            raise ValueError(
                f"owned/gids must cover all {self.n} local points, got "
                f"{owned.shape} / {gids.shape}"
            )
        self.owned = np.asarray(owned, dtype=bool)
        self.gids = np.asarray(gids, dtype=np.int64)
        #: (owned gid, halo gid) arrays in emission order, deduplicated
        #: once when the fragment is packaged
        self.cross_pairs: list[np.ndarray] = []

    def union(self, x: int, y: int) -> None:
        x, y = int(x), int(y)
        xo, yo = bool(self.owned[x]), bool(self.owned[y])
        if xo and yo:
            super().union(x, y)
        elif xo or yo:
            owned_row, halo_row = (x, y) if xo else (y, x)
            self.cross_pairs.append(self.gids[[[owned_row, halo_row]]])
        # halo-halo: both owners will see this relation themselves

    def union_many(self, x: int, others: np.ndarray) -> None:
        # what union(x, q) does for each q in turn: owned↔owned pairs
        # merge (and only they set flags), owned↔halo pairs are deferred
        # in ``others`` order, halo↔halo pairs are dropped
        owned = self.owned[others]
        if self.owned[x]:
            super().union_many(x, others[owned])
            self.defer(x, others[~owned])
        else:
            self.defer(others[owned], x)

    def defer(self, owned_rows: np.ndarray | int, halo_rows: np.ndarray | int) -> None:
        """Append (owned, halo) row pairs as cross pairs; a scalar side
        pairs with every row of the other."""
        pairs = np.column_stack(np.broadcast_arrays(owned_rows, halo_rows))
        if pairs.size:
            self.cross_pairs.append(self.gids[pairs])

    def postprocess_candidate_mask(self, candidates: np.ndarray) -> np.ndarray:
        # locally-known cores plus every halo point (globally judged)
        return self.core[candidates] | ~self.owned[candidates]

    def postprocess_unknown_mask(self, candidates: np.ndarray) -> np.ndarray:
        # halo points not locally proven core: their ε-relations become
        # cross pairs, never local unions
        return ~self.owned[candidates] & ~self.core[candidates]


def _emit_noise_rescue_pairs(state: DistributedMuDBSCANState) -> None:
    """Distributed Algorithm 8: unresolved noise may border a remote core."""
    for row, nbrs in state.noise_nbrs.items():
        if not state.owned[row] or state.assigned[row] or state.core[row]:
            continue
        state.defer(row, nbrs[~state.owned[nbrs]])


def _extract_intra_edges(state: DistributedMuDBSCANState) -> np.ndarray:
    """(gid, gid-of-local-root) for every owned point merged locally.

    One batched roots pass (union-find pointer jumping over the whole
    parent array) replaces a per-row Python ``find`` loop; owned rows
    only ever union with owned rows, so every root of an owned row is
    itself owned and its gid is well-defined.
    """
    rows = np.flatnonzero(state.owned)
    roots = state.uf.roots()[rows]
    merged = roots != rows
    if not merged.any():
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([state.gids[rows[merged]], state.gids[roots[merged]]])


def _extract_intra_edges_loop(state: DistributedMuDBSCANState) -> np.ndarray:
    """Reference per-row implementation (kept for the parity test)."""
    edges: list[tuple[int, int]] = []
    for row in np.flatnonzero(state.owned):
        root = state.uf.find(int(row))
        if root != row:
            edges.append((int(state.gids[row]), int(state.gids[root])))
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(edges, dtype=np.int64)


def _local_inputs(
    owned_points: np.ndarray,
    owned_gids: np.ndarray,
    halo_points: np.ndarray,
    halo_gids: np.ndarray,
):
    """The local point set (owned rows first, then the halo), its
    ownership mask and the state factory of a rank's run."""
    n_owned = owned_points.shape[0]
    if halo_points.shape[0]:
        all_points = np.vstack([owned_points, halo_points])
        all_gids = np.concatenate(
            [np.asarray(owned_gids, dtype=np.int64), np.asarray(halo_gids, dtype=np.int64)]
        )
    else:
        all_points = np.asarray(owned_points, dtype=np.float64)
        all_gids = np.asarray(owned_gids, dtype=np.int64)
    owned_mask = np.zeros(all_points.shape[0], dtype=bool)
    owned_mask[:n_owned] = True

    def factory(murtree: MuRTree, p: DBSCANParams, c: Counters) -> MuDBSCANState:
        return DistributedMuDBSCANState(murtree, p, c, owned_mask, all_gids)

    return all_points, owned_mask, factory


def _package_fragment(
    state: DistributedMuDBSCANState, timers: PhaseTimer
) -> LocalFragment:
    """A finished local run as the rank's fragment for the global merge."""
    _emit_noise_rescue_pairs(state)
    n_owned = int(np.count_nonzero(state.owned))
    # duplicate pairs are common (Algorithm 6 and 7 both touch the same
    # owned-halo edges); dedupe keeping first occurrence so border-claim
    # order stays deterministic while the exchanged volume shrinks
    if state.cross_pairs:
        pairs = np.concatenate(state.cross_pairs)
        _, first = np.unique(pairs, axis=0, return_index=True)
        cross = pairs[np.sort(first)]
    else:
        cross = np.empty((0, 2), dtype=np.int64)
    return LocalFragment(
        owned_gids=state.gids[:n_owned],
        core=state.core[:n_owned].copy(),
        assigned=state.assigned[:n_owned].copy(),
        intra_edges=_extract_intra_edges(state),
        cross_pairs=cross,
        counters=state.counters,
        stats={
            "phase_seconds": timers.as_dict(),
            "n_micro_clusters": state.murtree.n_micro_clusters,
            "n_halo": state.n - n_owned,
            "n_owned": n_owned,
            "n_wndq_core": len(state.wndq_corelist),
        },
    )


def run_local_mu_dbscan(
    owned_points: np.ndarray,
    owned_gids: np.ndarray,
    halo_points: np.ndarray,
    halo_gids: np.ndarray,
    params: DBSCANParams,
    *,
    timers: PhaseTimer | None = None,
    **mu_kwargs,
) -> LocalFragment:
    """Run μDBSCAN locally and package the rank's fragment.

    ``mu_kwargs`` (``aux_index``, ``block_size``, ``builder_block_size``
    …) pass through to :func:`~repro.core.mudbscan.run_mu_dbscan_state`.
    Algorithm 6 queries the rank's owned rows only (``process_mask``
    composes with the MC-batched engine: its blocks cover owned
    members, halo points stay query-free).
    """
    all_points, owned_mask, factory = _local_inputs(
        owned_points, owned_gids, halo_points, halo_gids
    )
    state, timers = run_mu_dbscan_state(
        all_points,
        params,
        timers=timers,
        process_mask=owned_mask,
        state_factory=factory,
        **mu_kwargs,
    )
    assert isinstance(state, DistributedMuDBSCANState)
    return _package_fragment(state, timers)
