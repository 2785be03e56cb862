"""The paper's literal per-point μDBSCAN pipeline, kept as a reference.

Production runs each step of Algorithm 2 on one vectorized path.  This
module keeps the paper's own formulation of the three steps those paths
replaced, so tests and the perf gate can compare against it:

* Algorithm 3 — :func:`build_micro_clusters_scan`: one level-1 R-tree
  probe and one small distance block per point, a dynamic
  ``tree.insert`` per created MC;
* Algorithm 5 — :func:`compute_reachable_probe`: one level-1 tree probe
  per MC;
* Algorithm 6 — one ε-query per point, the loop the ``flat`` and
  ``rtree`` aux modes also run in production.

:func:`reference_state` composes them with the production Algorithms 4,
7 and 8: the scan's objects, flattened to the member CSR, and the
probe's reach CSR go through
:meth:`~repro.microcluster.murtree.MuRTree.from_arrays`.
Its labels, core mask, ``point_mc``, MC member order and every work
counter equal production's (``tests/test_builder.py``,
``tests/test_batched_equivalence.py``).  No production module imports
this one; brute-force DBSCAN stays the exactness oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.core.postprocess import postprocess_core, postprocess_noise
from repro.core.process_mcs import process_micro_clusters
from repro.core.remaining import _process_per_point
from repro.core.result import ClusteringResult
from repro.core.state import MuDBSCANState
from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.index.grid import csr_from_parts
from repro.index.rtree import RTree
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.microcluster import MicroCluster
from repro.microcluster.murtree import MuRTree

__all__ = [
    "build_micro_clusters_scan",
    "compute_reachable_probe",
    "reference_state",
    "reference_mu_dbscan",
]


class _CenterArray:
    """Growing preallocated ``(m, d)`` array of MC centers.

    Algorithm 3 needs the centers of every candidate MC at every point;
    restacking them per point from the ``MicroCluster`` objects costs a
    Python-level loop each time, while one amortised-doubling buffer
    answers with a single fancy index."""

    def __init__(self, dim: int) -> None:
        self._buf = np.empty((64, dim), dtype=np.float64)
        self._m = 0

    def append(self, center: np.ndarray) -> None:
        if self._m == self._buf.shape[0]:
            grown = np.empty((2 * self._m, self._buf.shape[1]), dtype=np.float64)
            grown[: self._m] = self._buf
            self._buf = grown
        self._buf[self._m] = center
        self._m += 1

    def take(self, ids: np.ndarray) -> np.ndarray:
        return self._buf[ids]


def build_micro_clusters_scan(
    points: np.ndarray,
    eps: float,
    *,
    max_entries: int = 64,
    counters: Counters | None = None,
    defer_2eps: bool = True,
    metric: Metric = EUCLIDEAN,
) -> tuple[list[MicroCluster], RTree, np.ndarray]:
    """Algorithm 3 as the paper's per-point scan.

    Same contract and results as
    :func:`~repro.microcluster.builder.build_micro_clusters`; only the
    first-level tree's node layout differs (dynamic Guttman inserts
    instead of one STR pack).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    counters = counters if counters is not None else Counters()
    n, dim = pts.shape
    # candidate searches go through the (Euclidean) R-tree; a metric
    # ball fits in a Euclidean ball scaled by this factor
    cover = metric.l2_cover_factor(dim)

    tree = RTree(dim, max_entries=max_entries, counters=counters)
    mcs: list[MicroCluster] = []
    centers = _CenterArray(dim)
    point_mc = np.full(n, -1, dtype=np.int64)
    unassigned: list[int] = []
    eps_raw = metric.threshold(eps)
    two_eps_raw = metric.threshold(2.0 * eps)
    # one candidate sweep at the wider radius serves both the ε-join
    # test and the 2ε-deferral test, and one distance pass over the
    # candidates' centers answers both
    search_radius = (2.0 * eps if defer_2eps else eps) * cover

    def create_mc(row: int) -> int:
        mc_id = len(mcs)
        mc = MicroCluster(mc_id, row, pts[row])
        mcs.append(mc)
        centers.append(pts[row])
        tree.insert(mc_id, pts[row] - eps, pts[row] + eps)
        point_mc[row] = mc_id
        counters.micro_clusters += 1
        return mc_id

    # ---- pass 1: scan, join / defer / create --------------------------
    for row in range(n):
        p = pts[row]
        if not mcs:
            create_mc(row)
            continue
        candidates = tree.query_ball_candidates(p, search_radius)
        if candidates:
            # ascending ids make argmin's tie-break (nearest center,
            # lowest mc_id on exact raw ties) independent of tree layout
            # — the grid builder resolves ties the same way
            candidates.sort()
            cand = np.asarray(candidates, dtype=np.int64)
            counters.dist_calcs += cand.size
            raw = metric.raw_to_point(centers.take(cand), p)
            best = int(np.argmin(raw))
            if raw[best] < eps_raw:
                joined = candidates[best]  # nearest center within ε
                mcs[joined].add_member(row)
                point_mc[row] = joined
                continue
            if defer_2eps and raw[best] < two_eps_raw:
                unassigned.append(row)
                counters.deferred_points += 1
                continue
        create_mc(row)

    # ---- pass 2: place deferred points --------------------------------
    for row in unassigned:
        p = pts[row]
        candidates = tree.query_ball_candidates(p, eps * cover)
        if candidates:
            candidates.sort()
            cand = np.asarray(candidates, dtype=np.int64)
            counters.dist_calcs += cand.size
            raw = metric.raw_to_point(centers.take(cand), p)
            best = int(np.argmin(raw))
            if raw[best] < eps_raw:
                mcs[candidates[best]].add_member(row)
                point_mc[row] = candidates[best]
                continue
        create_mc(row)

    for mc in mcs:
        mc.freeze(pts, eps, metric=metric)
    return mcs, tree, point_mc


def compute_reachable_probe(
    centers: np.ndarray,
    tree: RTree,
    eps: float,
    counters: Counters | None = None,
    metric: Metric = EUCLIDEAN,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 5 as the paper's per-MC probe of the first-level tree.

    The tree shortlists the MCs whose ``center ± eps`` box touches the
    ball ``B(center, 3 eps)``, then the exact ``<= 3 eps``
    center-distance test keeps the reachable ones.  Same reach CSR and
    ``dist_calcs`` as
    :func:`~repro.microcluster.reachability.compute_reachable`.
    """
    counters = counters if counters is not None else Counters()
    limit_raw = metric.threshold(3.0 * eps)
    radius = 3.0 * eps * metric.l2_cover_factor(centers.shape[1])
    lists = []
    for center in centers:
        cand = np.asarray(tree.query_ball_candidates(center, radius), dtype=np.int64)
        # the MC's own box always contains the probe's center
        counters.dist_calcs += int(cand.shape[0])
        reach = cand[metric.raw_to_point(centers[cand], center) <= limit_raw]
        reach.sort()
        lists.append(reach)
    return csr_from_parts(lists)


def reference_state(
    points: np.ndarray,
    params: DBSCANParams,
    *,
    aux_index: str = "cached",
    filtration: bool = True,
    defer_2eps: bool = True,
    dynamic_wndq: bool = True,
    max_entries: int = 64,
    metric: str | Metric = EUCLIDEAN,
    counters: Counters | None = None,
    timers: PhaseTimer | None = None,
    process_mask: np.ndarray | None = None,
    state_factory=MuDBSCANState,
) -> tuple[MuDBSCANState, PhaseTimer]:
    """Run the reference pipeline; the counterpart of
    :func:`~repro.core.mudbscan.run_mu_dbscan_state`, with the same
    four phase timings and the same meaning of every keyword."""
    counters = counters if counters is not None else Counters()
    timers = timers if timers is not None else PhaseTimer()
    pts = np.ascontiguousarray(points, dtype=np.float64)
    metric = get_metric(metric)
    eps = params.eps
    with timers.phase("tree_construction"):
        mcs, level1, point_mc = build_micro_clusters_scan(
            pts,
            eps,
            max_entries=max_entries,
            counters=counters,
            defer_2eps=defer_2eps,
            metric=metric,
        )
    with timers.phase("finding_reachable_groups"):
        center_rows = np.asarray([mc.center_row for mc in mcs], dtype=np.int64)
        murtree = MuRTree.from_arrays(
            pts,
            eps,
            point_mc,
            center_rows,
            *csr_from_parts([mc.member_rows for mc in mcs]),
            *compute_reachable_probe(pts[center_rows], level1, eps, counters, metric),
            aux_index=aux_index,
            filtration=filtration,
            counters=counters,
            metric=metric,
        )
        murtree.compute_reachability()  # the reach blocks' lengths
    state = state_factory(murtree, params, counters)
    with timers.phase("clustering"):
        process_micro_clusters(state)
        _process_per_point(state, dynamic_wndq, process_mask)
    with timers.phase("post_processing"):
        postprocess_core(state)
        postprocess_noise(state)
    eligible = state.n if process_mask is None else int(np.count_nonzero(process_mask))
    counters.queries_saved += eligible - counters.queries_run
    return state, timers


def reference_mu_dbscan(
    points: np.ndarray, eps: float, min_pts: int, **kwargs
) -> ClusteringResult:
    """:func:`reference_state` packaged like
    :func:`~repro.core.mudbscan.mu_dbscan`'s result."""
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    counters = Counters()
    state, timers = reference_state(points, params, counters=counters, **kwargs)
    return ClusteringResult(
        labels=state.uf.labels(noise_mask=state.final_noise_mask()),
        core_mask=state.core.copy(),
        params=params,
        algorithm="mu_dbscan_reference",
        counters=counters,
        timers=timers,
        extras={
            ExtraKeys.N_MICRO_CLUSTERS: state.murtree.n_micro_clusters,
            ExtraKeys.AVG_MC_SIZE: state.murtree.avg_mc_size,
        },
    )
