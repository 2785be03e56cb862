"""The sampled-core engine — DBSCAN++-style candidate restriction.

Jang & Jiang's observation: running the ε-neighborhood query for only a
sampled subset of *candidate* cores preserves clustering quality at a
fraction of the query cost, because dense regions contain many
redundant cores.  On top of the μR-tree this becomes:

1. build the micro-cluster index and reachability exactly as the exact
   engine does (Algorithms 3 + 5 — the shared substrate);
2. pick a candidate subset: ``selection="uniform"`` samples an
   ``s``-fraction of all rows; ``selection="grid"`` (default) hashes
   the dataset into ε-cells anchored at its per-axis minimum and
   samples an ``s``-fraction *per occupied cell* (at least one), so
   sparse regions keep coverage instead of losing their only cores;
3. answer each candidate's ε-query through the MC-batched engine
   (:meth:`MuRTree.query_ball_block`, grouped by owning MC).  Counts
   are **exact**, so every detected core is a true DBSCAN core — the
   approximation only *misses* cores, it never invents them;
4. union candidate cores through their in-sample core neighbors
   (the DBSCAN++ core graph);
5. assign every remaining point to its nearest detected core strictly
   within ε — the same nearest-core-within-ε rule (and deterministic
   distance-then-row tie-break) as ``serving.predict``, but routed
   through the point's own MC reachable block (Lemma 3) instead of the
   predictor's level-1 probe, since membership is already known;
6. repair split bridges: a point within ε of detected cores from two
   *different* components is a suspect — the connecting core chain may
   simply not have been sampled.  Each suspect gets its own exact
   ε-query; if it proves core, its ε-ball is a valid DBSCAN chain and
   the touched components merge.  Suspects are rare (cluster
   boundaries only), so the repair costs a handful of extra queries
   while removing DBSCAN++'s characteristic cluster-splitting
   artifact.

Deterministic under a fixed ``seed``: selection uses one seeded
generator and every later stage is order-stable.
"""

from __future__ import annotations

from typing import Any, ClassVar

import numpy as np

from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.engines.base import ClusteringEngine, EngineFitState
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.builder import DEFAULT_BUILDER_BLOCK_SIZE
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE, MuRTree
from repro.observability.tracing import maybe_span
from repro.unionfind import UnionFind

__all__ = ["SampledCoreEngine"]


def _groups_by_mc(point_mc: np.ndarray, rows: np.ndarray):
    """Yield ``(mc_id, rows_of_mc)`` with rows ascending within groups."""
    if rows.size == 0:
        return
    order = np.argsort(point_mc[rows], kind="stable")
    rows = rows[order]
    owners = point_mc[rows]
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    bounds = np.r_[starts, owners.size]
    for i, start in enumerate(starts):
        yield int(owners[start]), rows[start : bounds[i + 1]]


class SampledCoreEngine(ClusteringEngine):
    """Approximate engine: cores restricted to a sampled candidate set.

    Parameters
    ----------
    sample_fraction:
        Fraction ``s`` of rows promoted to core candidates (per ε-cell
        for ``selection="grid"``).
    selection:
        ``"grid"`` (default, ε-cell-coverage sampling) or ``"uniform"``.
    seed:
        Seed of the selection RNG — fixes the whole run's outcome.
    """

    name: ClassVar[str] = "sampled"
    OPTIONS: ClassVar[tuple[str, ...]] = ("sample_fraction", "selection", "seed")

    def __init__(
        self,
        sample_fraction: float = 0.4,
        selection: str = "grid",
        seed: int = 0,
    ) -> None:
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        if selection not in ("uniform", "grid"):
            raise ValueError(
                f"selection must be 'uniform' or 'grid', got {selection!r}"
            )
        self.sample_fraction = float(sample_fraction)
        self.selection = selection
        self.seed = int(seed)

    # ------------------------------------------------------------------

    @staticmethod
    def _verify_cores(
        murtree: MuRTree,
        rows: np.ndarray,
        counters: Counters,
        block_size: int,
        *,
        min_pts: int | None = None,
        links: list[np.ndarray] | None = None,
        core: np.ndarray | None = None,
    ) -> dict[int, int]:
        """Exact ε-queries for ``rows``; returns row → neighbor count.

        With ``min_pts``/``links``/``core`` given, every row that proves
        core is promoted in place: marked in ``core``, and its edges to
        each already-core neighbor (the core-graph edges the promotion
        creates) appended to ``links``.
        """
        counts: dict[int, int] = {}
        for mc_id, grp in _groups_by_mc(murtree.point_mc, rows):
            res = murtree.query_ball_block(
                mc_id, grp, block_size=block_size, validate=False
            )
            counters.queries_run += int(grp.size)
            for i, row in enumerate(grp):
                row = int(row)
                counts[row] = int(res.n_eps[i])
                if links is not None and counts[row] >= min_pts:
                    core[row] = True
                    nbrs = res.nbrs(int(i))
                    other = nbrs[core[nbrs]]
                    links.append(np.column_stack(np.broadcast_arrays(row, other)))
        return counts

    def _select_candidates(self, points: np.ndarray, eps: float) -> np.ndarray:
        """Boolean candidate mask over the dataset rows."""
        n = points.shape[0]
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        rng = np.random.default_rng(self.seed)
        if self.selection == "uniform":
            k = max(1, int(round(self.sample_fraction * n)))
            mask[rng.choice(n, size=k, replace=False)] = True
            return mask
        # ε-cell coverage: at least one candidate per occupied cell,
        # cells in order of first appearance, rows ascending in each
        coords = np.floor((points - points.min(axis=0)) / eps).astype(np.int64)
        _, first, cell_of = np.unique(
            coords, axis=0, return_index=True, return_inverse=True
        )
        rank = np.argsort(np.argsort(first))[cell_of.reshape(-1)]
        rows = np.argsort(rank, kind="stable")
        for bucket in np.split(rows, np.cumsum(np.bincount(rank))[:-1]):
            k = min(
                bucket.size,
                max(1, int(np.ceil(self.sample_fraction * bucket.size))),
            )
            take = bucket if k == bucket.size else rng.choice(
                bucket, size=k, replace=False
            )
            mask[take] = True
        return mask

    def _fit_state(
        self,
        points: np.ndarray,
        params: DBSCANParams,
        *,
        counters: Counters,
        timers: PhaseTimer,
        aux_index: str = "cached",
        metric: str | Metric = EUCLIDEAN,
        block_size: int = DEFAULT_BLOCK_SIZE,
        builder_block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
    ) -> EngineFitState:
        eps, min_pts = params.eps, params.min_pts
        with timers.phase("tree_construction"), maybe_span("tree_construction"):
            murtree = MuRTree(
                points,
                eps,
                aux_index=aux_index,
                counters=counters,
                metric=metric,
                builder_block_size=builder_block_size,
            )
        with timers.phase("finding_reachable_groups"), maybe_span(
            "finding_reachable_groups"
        ):
            murtree.compute_reachability()

        pts = murtree.points
        n = pts.shape[0]
        mtr = murtree.metric
        r_raw = mtr.threshold(eps)
        core = np.zeros(n, dtype=bool)
        uf = UnionFind(n, counters)

        with timers.phase("clustering"), maybe_span("clustering"):
            cand_mask = self._select_candidates(pts, eps)
            cand_rows = np.flatnonzero(cand_mask)
            counters.queries_run += int(cand_rows.size)
            # stage 1: exact counts for every candidate; keep only the
            # in-sample neighbor lists of rows that prove core (the
            # union stage needs nothing else)
            core_rows: list[int] = []
            core_nbrs: list[np.ndarray] = []
            for mc_id, rows in _groups_by_mc(murtree.point_mc, cand_rows):
                res = murtree.query_ball_block(
                    mc_id, rows, block_size=block_size, validate=False
                )
                for i in np.flatnonzero(res.n_eps >= min_pts):
                    row = int(rows[i])
                    core[row] = True
                    nbrs = res.nbrs(int(i))
                    core_rows.append(row)
                    # only higher rows: the ε-relation is symmetric, so
                    # each core pair is unioned exactly once
                    core_nbrs.append(nbrs[cand_mask[nbrs] & (nbrs > row)])
            # stage 2: core graph over the sample — each core with its
            # in-sample neighbors that also proved core, in one pass
            if core_rows:
                nbrs = np.concatenate(core_nbrs)
                rows = np.repeat(core_rows, [a.size for a in core_nbrs])
                link = core[nbrs]
                uf.union_edges(rows[link], nbrs[link])

        with timers.phase("post_processing"), maybe_span("post_processing"):
            # nearest detected core strictly within ε, candidates drawn
            # from the point's MC reachable block (Lemma 3 covers every
            # possible ε-neighbor); ties break like serving.predict —
            # smallest distance, then smallest core row
            assigned = core.copy()
            # component snapshot: border unions below only attach
            # singletons, so cross-component suspects stay detectable;
            # nothing else reads the union-find before the labels, so
            # the phase's edges are collected in ``links``
            roots_snap = uf.roots()
            links: list[np.ndarray] = []
            bridge_rows: list[int] = []
            bridge_cores: list[np.ndarray] = []
            for mc_id, rows in _groups_by_mc(
                murtree.point_mc, np.flatnonzero(~core)
            ):
                cand = murtree.reach_block(mc_id)
                cand = cand[core[cand]]
                if cand.size == 0:
                    continue
                cand = np.sort(cand)  # argmin's first-hit = smallest row
                cand_pts = pts[cand]
                cand_roots = roots_snap[cand]
                for start in range(0, rows.size, block_size):
                    chunk = rows[start : start + block_size]
                    counters.dist_calcs += int(chunk.size) * int(cand.size)
                    raw = mtr.raw_pairwise_stable(pts[chunk], cand_pts)
                    within = raw < r_raw
                    hit = within.any(axis=1)
                    if not hit.any():
                        continue
                    best = np.argmin(
                        np.where(within, raw, np.inf), axis=1
                    )
                    links.append(np.column_stack([cand[best[hit]], chunk[hit]]))
                    assigned[chunk[hit]] = True
                    # bridge suspects: within ε of cores from ≥2
                    # distinct components
                    rmin = np.where(
                        within, cand_roots[None, :], np.iinfo(np.int64).max
                    ).min(axis=1)
                    rmax = np.where(within, cand_roots[None, :], -1).max(axis=1)
                    for i in np.flatnonzero(hit & (rmin != rmax)):
                        bridge_rows.append(int(chunk[i]))
                        bridge_cores.append(cand[within[i]])
            # bridge repair: exact query per suspect; true cores merge
            # the components their ε-ball touches (a valid DBSCAN chain)
            if bridge_rows:
                brows = np.asarray(bridge_rows, dtype=np.int64)
                n_eps_by_row = self._verify_cores(
                    murtree, brows, counters, block_size
                )
                for row, touched in zip(bridge_rows, bridge_cores):
                    if n_eps_by_row[row] >= min_pts:
                        core[row] = True
                        links.append(np.column_stack(np.broadcast_arrays(row, touched)))
            # noise rescue: an unassigned point may sit in the ε-ball
            # of a core the sample missed.  Assigned border points
            # adjacent to unassigned ones are the only places such
            # hidden cores can hide — verify them exactly, promote the
            # ones that prove core, assign their fringe, and repeat
            # until the frontier stops moving (chains of hidden cores
            # need one round per hop).
            extra_queries = len(bridge_rows)
            checked: set[int] = set()
            while True:
                un_rows = np.flatnonzero(~assigned)
                if un_rows.size == 0:
                    break
                suspects: set[int] = set()
                for mc_id, rows in _groups_by_mc(murtree.point_mc, un_rows):
                    cand = murtree.reach_block(mc_id)
                    cand = cand[assigned[cand] & ~core[cand]]
                    if cand.size == 0:
                        continue
                    cand_pts = pts[cand]
                    for start in range(0, rows.size, block_size):
                        chunk = rows[start : start + block_size]
                        counters.dist_calcs += int(chunk.size) * int(cand.size)
                        raw = mtr.raw_pairwise_stable(pts[chunk], cand_pts)
                        for i in np.flatnonzero((raw < r_raw).any(axis=1)):
                            suspects.update(
                                int(c) for c in cand[raw[i] < r_raw]
                            )
                suspects -= checked
                if not suspects:
                    break
                checked |= suspects
                srows = np.asarray(sorted(suspects), dtype=np.int64)
                extra_queries += int(srows.size)
                n_eps_by_row = self._verify_cores(
                    murtree,
                    srows,
                    counters,
                    block_size,
                    min_pts=min_pts,
                    links=links,
                    core=core,
                )
                if not any(
                    n_eps_by_row[int(r)] >= min_pts for r in srows
                ):
                    break
                # assign the fringe against the enlarged core set
                for mc_id, rows in _groups_by_mc(murtree.point_mc, un_rows):
                    cand = murtree.reach_block(mc_id)
                    cand = np.sort(cand[core[cand]])
                    if cand.size == 0:
                        continue
                    cand_pts = pts[cand]
                    for start in range(0, rows.size, block_size):
                        chunk = rows[start : start + block_size]
                        counters.dist_calcs += int(chunk.size) * int(cand.size)
                        raw = mtr.raw_pairwise_stable(pts[chunk], cand_pts)
                        within = raw < r_raw
                        hit = within.any(axis=1)
                        if not hit.any():
                            continue
                        best = np.argmin(np.where(within, raw, np.inf), axis=1)
                        links.append(
                            np.column_stack([cand[best[hit]], chunk[hit]])
                        )
                        assigned[chunk[hit]] = True
            if links:
                edges = np.concatenate(links)
                uf.union_edges(edges[:, 0], edges[:, 1])
            labels = uf.labels(noise_mask=~assigned)

        counters.queries_saved += max(
            0, n - int(cand_rows.size) - extra_queries
        )
        return EngineFitState(
            murtree=murtree,
            labels=labels,
            core_mask=core,
            extras={
                ExtraKeys.N_CANDIDATES: int(cand_rows.size),
                ExtraKeys.N_WNDQ_CORE: 0,
            },
        )
