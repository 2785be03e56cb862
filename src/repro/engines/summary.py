"""The summary engine — geometric reconstruction over MC centers.

Garcia-Pulido & Samardzhiev's idea, mapped onto μDBSCAN's structures:
the micro-clusters the grid builder produces *are* a weighted summary
of the dataset (every member strictly within ε of its center, centers
pairwise ≥ ε apart), so cluster the summaries instead of the points:

1. build the micro-clusters with the grid-hash builder — Algorithm 3
   only; reachability (Algorithm 5) and the per-point query phases are
   skipped entirely, which is where the speedup comes from;
2. decide coreness at center granularity, exactly: one vectorized
   ``centers × points`` sweep counts each center's ε-neighborhood, and
   an MC is a *core MC* iff its center's count reaches MinPts — i.e.
   its center is a true DBSCAN core point.  This subsumes Lemma 2
   (``|MC| ≥ MinPts`` implies the count passes, every member being
   within ε of the center) but also certifies the many small MCs whose
   centers sit in dense regions, which the size bound alone misses.
   The same sweep counts each center's ``ε + r_i`` ball (``r_i`` the
   MC's realized member radius) — the pruning bound of step 4;
3. link two core MCs in two stages: a center-distance prefilter —
   centers within ``ε + r_i + r_j`` — followed by a *core-core*
   member confirmation: the within-ε cross-member pairs are scanned
   nearest-first and the link fires on the first pair whose two rows
   both verify as exact cores (lazy per-row ε-counts, cached and
   seeded with every already-known center and stray verdict).  A true
   core-core ε-edge between members forces the centers within the
   prefilter bound (triangle inequality) and is found by the scan, so
   core MCs of one exact cluster are never split; and since every
   link now *is* a DBSCAN core-graph edge, the center bound's slack
   (up to ~3ε) can no longer over-merge.  ``link_factor`` replaces
   the adaptive prefilter with a fixed ``link_factor·ε`` when set
   (the confirmation still applies);
4. find *stray cores* — true cores living in MCs whose centers are
   not core (thin chains, sparse regions).  For a member ``x`` of
   MC ``i``, ``N_ε(x) ⊆ B(c_i, ε + r_i)``, so an MC whose ``ε + r_i``
   center count is below MinPts provably contains no core and is
   pruned wholesale; members of the surviving non-core MCs get exact
   ε-counts.  Every true core outside the core MCs is therefore found
   — core detection misses nothing, it only leaves core-MC *members*
   unverified until a link decision needs them.  Each stray joins the
   component graph as its own node, unioned with every core MC
   holding a verified core inside the stray's ε-ball and with every
   other stray strictly within ε (both are DBSCAN core-graph edges),
   which is what keeps chained sparse clusters — road networks,
   filaments — in one piece;
5. broadcast each core MC's component to all of its members (every
   member is within ε of a true core, hence in the cluster — exact);
   everything else is assigned to the nearest *anchor* — core-MC
   member or stray core — strictly within ε (ties by smallest anchor
   row) or becomes noise.  Anchors stand in for the true core set
   here: border members of core MCs can pull in points exact DBSCAN
   would call noise; that recall/precision trade is what the ARI gate
   measures.

No per-point ε-query runs for the bulk of the data; the whole
clustering costs one ``m × n`` coreness sweep
(``m = #MCs ≈ n / avg_mc_size``), the stray-candidate sweep (empty on
dense data, where the prune fires), one ``m_core × m_core`` center
sweep and one assignment sweep — all dense vectorized blocks with no
per-point Python dispatch.  Fully deterministic (no sampling).
"""

from __future__ import annotations

from typing import Any, ClassVar

import numpy as np

from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.engines.base import ClusteringEngine, EngineFitState
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.index.grid import concat_ranges
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.builder import DEFAULT_BUILDER_BLOCK_SIZE
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE, MuRTree
from repro.observability.tracing import maybe_span
from repro.unionfind import UnionFind, dense_first_appearance

__all__ = ["SummaryEngine"]


class SummaryEngine(ClusteringEngine):
    """Approximate engine: cluster micro-cluster summaries, not points.

    Parameters
    ----------
    link_factor:
        ``None`` (default) prefilters core-MC links by the adaptive
        ``ε + r_i + r_j`` center bound; a float prefilters by a fixed
        ``link_factor·ε`` center distance instead.  Either way a link
        must be confirmed by a cross-member pair strictly within ε.
    """

    name: ClassVar[str] = "summary"
    OPTIONS: ClassVar[tuple[str, ...]] = ("link_factor",)

    def __init__(self, link_factor: float | None = None) -> None:
        if link_factor is not None and link_factor <= 0.0:
            raise ValueError(f"link_factor must be positive, got {link_factor}")
        self.link_factor = None if link_factor is None else float(link_factor)

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

        pts = murtree.points
        n = pts.shape[0]
        m = murtree.n_micro_clusters
        mtr = murtree.metric
        r_raw = mtr.threshold(eps)
        core_mask = np.zeros(n, dtype=bool)
        # component id per point: MC id for core-MC members, m + k for
        # stray core k, resolved to union-find roots at the very end
        comp_assign = np.full(n, -1, dtype=np.int64)

        offsets, members = murtree.member_offsets, murtree.member_flat
        sizes = np.diff(offsets)

        def member_rows_of(mc_ids: np.ndarray) -> np.ndarray:
            return members[concat_ranges(offsets[mc_ids], sizes[mc_ids])]

        with timers.phase("clustering"), maybe_span("clustering"):
            # exact coreness at center granularity, plus the ε + r_i
            # upper-bound count that prunes the stray search (step 4)
            centers_all = np.take(pts, murtree.center_rows, axis=0)
            # r_i: the farthest member from the center, each distance
            # formed as raw_to_point(members, center) forms it
            from_center = murtree.member_points - np.repeat(centers_all, sizes, axis=0)
            raw_r = mtr.raw_to_point(from_center, np.zeros(pts.shape[1]))
            radii_all = (
                mtr.dist_from_raw(np.maximum.reduceat(raw_r, offsets[:-1]))
                if m
                else np.empty(0)
            )
            counts = np.zeros(m, dtype=np.int64)
            ub_counts = np.zeros(m, dtype=np.int64)
            for start in range(0, m, block_size):
                sl = slice(start, min(start + block_size, m))
                counters.dist_calcs += (sl.stop - sl.start) * n
                raw = mtr.raw_pairwise_stable(centers_all[sl], pts)
                counts[sl] = np.count_nonzero(raw < r_raw, axis=1)
                ub_raw = np.asarray(
                    [mtr.threshold(eps + r) for r in radii_all[sl]]
                )
                ub_counts[sl] = np.count_nonzero(
                    raw < ub_raw[:, None], axis=1
                )
            counters.queries_run += m
            core_mc = counts >= min_pts
            core_ids = np.flatnonzero(core_mc)
            n_core_mcs = int(core_ids.size)

            # stray cores: exact ε-counts for members of non-core MCs
            # that survive the ε + r_i prune (N_ε(x) ⊆ B(c_i, ε + r_i),
            # so pruned MCs provably hold no core)
            stray_mc_ids = np.flatnonzero(~core_mc & (ub_counts >= min_pts))
            stray_cand = member_rows_of(stray_mc_ids)
            stray_rows = np.empty(0, dtype=np.int64)
            if stray_cand.size:
                stray_cand = np.sort(stray_cand)
                cand_counts = np.zeros(stray_cand.size, dtype=np.int64)
                for start in range(0, stray_cand.size, block_size):
                    sl = slice(
                        start, min(start + block_size, stray_cand.size)
                    )
                    counters.dist_calcs += (sl.stop - sl.start) * n
                    raw = mtr.raw_pairwise_stable(pts[stray_cand[sl]], pts)
                    cand_counts[sl] = np.count_nonzero(raw < r_raw, axis=1)
                counters.queries_run += int(stray_cand.size)
                stray_rows = stray_cand[cand_counts >= min_pts]
            n_strays = int(stray_rows.size)

            uf = UnionFind(m + n_strays, counters)

            # lazy exact coreness for individual rows, seeded with
            # everything already known: centers and stray candidates
            core_known: dict[int, bool] = dict(
                zip(murtree.center_rows.tolist(), core_mc.tolist())
            )
            if stray_cand.size:
                for row, cnt in zip(stray_cand, cand_counts):
                    core_known[int(row)] = bool(cnt >= min_pts)

            def is_core_row(row: int) -> bool:
                known = core_known.get(row)
                if known is None:
                    counters.dist_calcs += n
                    counters.queries_run += 1
                    raw_row = mtr.raw_pairwise_stable(pts[row : row + 1], pts)
                    known = bool(
                        np.count_nonzero(raw_row < r_raw) >= min_pts
                    )
                    core_known[row] = known
                return known

            # link core MCs: center prefilter + core-core member
            # confirmation (pairs scanned nearest-first, coreness
            # verified lazily — a link is exactly a DBSCAN core-graph
            # edge between the two member sets)
            if n_core_mcs:
                centers = centers_all[core_ids]
                radii = radii_all[core_ids]
                for start in range(0, n_core_mcs, block_size):
                    sl = slice(start, min(start + block_size, n_core_mcs))
                    counters.dist_calcs += (sl.stop - sl.start) * n_core_mcs
                    dist = mtr.dist_from_raw(
                        mtr.raw_pairwise_stable(centers[sl], centers)
                    )
                    if self.link_factor is None:
                        limit = eps + radii[sl][:, None] + radii[None, :]
                    else:
                        limit = self.link_factor * eps
                    for i_local, j in zip(*np.nonzero(dist < limit)):
                        i = start + int(i_local)
                        if int(j) <= i:
                            continue
                        a_lo, a_hi = offsets[core_ids[i]], offsets[core_ids[i] + 1]
                        b_lo, b_hi = offsets[core_ids[j]], offsets[core_ids[j] + 1]
                        a = murtree.member_points[a_lo:a_hi]
                        b = murtree.member_points[b_lo:b_hi]
                        counters.dist_calcs += a.shape[0] * b.shape[0]
                        raw_ab = mtr.raw_pairwise_stable(a, b)
                        pairs = np.argwhere(raw_ab < r_raw)
                        if pairs.size == 0:
                            continue
                        order = np.argsort(
                            raw_ab[pairs[:, 0], pairs[:, 1]], kind="stable"
                        )
                        for pi in order:
                            u = int(members[a_lo + pairs[pi, 0]])
                            v = int(members[b_lo + pairs[pi, 1]])
                            if is_core_row(u) and is_core_row(v):
                                uf.union(
                                    int(core_ids[i]), int(core_ids[int(j)])
                                )
                                break

            # link strays: with every core MC holding a verified core
            # within the stray's ε-ball, and with every other stray
            # within ε (strays are exact cores, so both are DBSCAN
            # core-graph edges)
            anchor0_rows = member_rows_of(core_ids)
            anchor0_mc = np.repeat(core_ids, sizes[core_ids])
            if n_strays:
                targets = np.concatenate([anchor0_rows, stray_rows])
                target_comp = np.concatenate(
                    [anchor0_mc, m + np.arange(n_strays, dtype=np.int64)]
                )
                target_pts = pts[targets]
                n_anchor0 = int(anchor0_rows.size)
                for start in range(0, n_strays, block_size):
                    sl = slice(start, min(start + block_size, n_strays))
                    counters.dist_calcs += (
                        (sl.stop - sl.start) * targets.size
                    )
                    raw = mtr.raw_pairwise_stable(
                        pts[stray_rows[sl]], target_pts
                    )
                    for i_local, j in zip(*np.nonzero(raw < r_raw)):
                        j = int(j)
                        # stray-to-stray edges union directly; a
                        # stray-to-member edge is a core-graph edge
                        # only if the member proves core
                        if j < n_anchor0 and not is_core_row(
                            int(anchor0_rows[j])
                        ):
                            continue
                        uf.union(
                            m + start + int(i_local), int(target_comp[j])
                        )

            comp_assign[anchor0_rows] = anchor0_mc
            core_mask[murtree.center_rows[core_ids]] = True
            comp_assign[stray_rows] = m + np.arange(n_strays, dtype=np.int64)
            core_mask[stray_rows] = True

        with timers.phase("post_processing"), maybe_span("post_processing"):
            anchor_rows = np.flatnonzero(comp_assign >= 0)
            rest = np.flatnonzero(comp_assign < 0)
            if anchor_rows.size and rest.size:
                # border rule: nearest anchor strictly within ε, ties
                # by smallest anchor row (flatnonzero is row-ordered)
                anchor_comp = comp_assign[anchor_rows]
                anchors = pts[anchor_rows]
                for start in range(0, rest.size, block_size):
                    chunk = rest[start : start + block_size]
                    counters.dist_calcs += int(chunk.size) * anchor_rows.size
                    raw = mtr.raw_pairwise_stable(pts[chunk], anchors)
                    within = raw < r_raw
                    hit = within.any(axis=1)
                    if not hit.any():
                        continue
                    best = np.argmin(np.where(within, raw, np.inf), axis=1)
                    comp_assign[chunk[hit]] = anchor_comp[best[hit]]
            roots = uf.roots()
            point_comp = np.where(comp_assign >= 0, roots[comp_assign], -1)
            labels = dense_first_appearance(point_comp)

        counters.queries_saved += max(0, n - m - int(stray_cand.size))
        return EngineFitState(
            murtree=murtree,
            labels=labels,
            core_mask=core_mask,
            extras={
                ExtraKeys.N_CORE_MCS: n_core_mcs,
                ExtraKeys.N_STRAY_CORES: n_strays,
                ExtraKeys.N_WNDQ_CORE: 0,
            },
        )
