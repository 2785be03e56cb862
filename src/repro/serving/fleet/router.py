"""Spatial routing: kd-shard the model so queries hit one worker each.

μDBSCAN-D kd-partitions the *dataset* across ranks (paper §V-A); the
fleet reuses the idiom one level up and kd-partitions the **fitted
model's micro-cluster centers** into ``n_shards`` axis-aligned boxes.
A query routes to the unique shard whose box contains it, and that
shard alone answers it — no scatter/gather across the fleet on the
query path.

**Exactness (the 2ε halo rule).**  Online prediction only ever reads
micro-clusters whose center lies within the widened Lemma-3 radius
``R = 2ε·(1 + slack)`` of the query (:mod:`repro.serving.predict`).
For a query ``q`` inside shard box ``B`` and any MC center ``c``,
``dist(c, B) <= dist(c, q)`` — so duplicating into the shard every MC
whose center is within ``R`` *of the box* guarantees the shard holds
every MC the full model would touch for any ``q ∈ B``.  The halo test
widens ``R`` once more (``_HALO_SLACK``) so floating-point rounding in
the point-to-box distance can never exclude a marginal center; halo
duplication only ever *adds* MCs, and prediction's per-member strict-<
test is what decides, so extra MCs never change an answer.  The shard
sub-model keeps global cluster labels and orders its rows by ascending
global row id, which makes the nearest-core tie-break (smallest row id
among equidistant cores) agree with the full model after translation —
the parity tests assert bitwise equality, boundary queries included.

Shard *member* points may lie outside the shard box (only centers are
partitioned), which is exactly why the halo is phrased on centers: the
MC invariant bounds members to < ε of their center, and Lemma 3 folds
that into the 2ε center radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.model import FittedModel
from repro.serving.predict import (
    PredictResult,
    _ROUTING_SLACK,
    predict_model,
)

__all__ = [
    "KDCut",
    "ShardPlan",
    "ShardModel",
    "ShardedPredictor",
    "plan_shards",
    "build_shard_model",
    "merge_shard_results",
]

#: extra relative widening of the halo radius over prediction's own
#: widened routing radius — absorbs rounding in the point-to-box
#: distance; adding MCs is always safe, dropping one never is
_HALO_SLACK = 1e-9


@dataclass
class KDCut:
    """One internal node of the routing tree: ``axis < cut`` goes left."""

    axis: int
    cut: float
    left: "KDCut | int"
    right: "KDCut | int"


@dataclass
class ShardPlan:
    """The routing tree plus each shard's box and micro-cluster sets.

    ``owned_mcs[s]`` are the MCs whose center falls in shard ``s``'s
    box (a partition of all MC ids); ``shard_mcs[s]`` additionally
    includes the 2ε-halo duplicates — the MC set the shard's sub-model
    is built from.
    """

    n_shards: int
    dim: int
    tree: KDCut | int
    box_lows: np.ndarray
    box_highs: np.ndarray
    owned_mcs: list[np.ndarray]
    shard_mcs: list[np.ndarray]
    halo_radius: float

    def assign(self, queries: np.ndarray) -> np.ndarray:
        """Shard id for each query row (vectorized tree descent)."""
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim == 1:
            q = q.reshape(1, -1)
        out = np.zeros(q.shape[0], dtype=np.int64)
        self._assign_into(self.tree, q, np.arange(q.shape[0]), out)
        return out

    def _assign_into(
        self, node: KDCut | int, q: np.ndarray, idx: np.ndarray, out: np.ndarray
    ) -> None:
        if isinstance(node, int):
            out[idx] = node
            return
        go_left = q[idx, node.axis] < node.cut
        if go_left.any():
            self._assign_into(node.left, q, idx[go_left], out)
        if not go_left.all():
            self._assign_into(node.right, q, idx[~go_left], out)


def _split_tree(
    centers: np.ndarray,
    idx: np.ndarray,
    n_shards: int,
    next_id: list[int],
    box_low: np.ndarray,
    box_high: np.ndarray,
    lows: list[np.ndarray],
    highs: list[np.ndarray],
) -> KDCut | int:
    """Recursively halve the shard budget along the widest center axis.

    Cuts at the median of the centers currently in the box (the same
    sampled-median idiom as :func:`repro.distributed.partition.kd_partition`,
    exact here because the model's center set is small).  Handles any
    ``n_shards`` — odd budgets split ceil/floor.
    """
    if n_shards == 1:
        shard = next_id[0]
        next_id[0] += 1
        lows.append(box_low.copy())
        highs.append(box_high.copy())
        return shard
    if idx.size:
        sub = centers[idx]
        spread = sub.max(axis=0) - sub.min(axis=0)
        axis = int(np.argmax(spread))
        cut = float(np.median(sub[:, axis]))
        lo, hi = float(sub[:, axis].min()), float(sub[:, axis].max())
        if cut <= lo or cut > hi:  # degenerate spread: fall back to midpoint
            cut = 0.5 * (lo + hi)
    else:  # no centers here — split the box anyway to keep ids dense
        axis = 0
        finite_lo = box_low[axis] if np.isfinite(box_low[axis]) else -1.0
        finite_hi = box_high[axis] if np.isfinite(box_high[axis]) else 1.0
        cut = 0.5 * (finite_lo + finite_hi)
    n_left = n_shards // 2
    left_sel = centers[idx, axis] < cut if idx.size else np.zeros(0, dtype=bool)
    left_high = box_high.copy()
    left_high[axis] = min(box_high[axis], cut)
    right_low = box_low.copy()
    right_low[axis] = max(box_low[axis], cut)
    left = _split_tree(
        centers, idx[left_sel], n_left, next_id, box_low, left_high, lows, highs
    )
    right = _split_tree(
        centers, idx[~left_sel], n_shards - n_left, next_id, right_low, box_high,
        lows, highs,
    )
    return KDCut(axis=axis, cut=cut, left=left, right=right)


def plan_shards(model: FittedModel, n_shards: int) -> ShardPlan:
    """Partition the model's MC centers into ``n_shards`` routed boxes."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    dim = model.dim
    m = model.n_micro_clusters
    centers = (
        np.ascontiguousarray(model.points[model.center_rows])
        if m
        else np.empty((0, max(dim, 1)))
    )
    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    tree = _split_tree(
        centers,
        np.arange(m, dtype=np.int64),
        n_shards,
        [0],
        np.full(max(dim, 1), -np.inf),
        np.full(max(dim, 1), np.inf),
        lows,
        highs,
    )
    box_lows = np.stack(lows)
    box_highs = np.stack(highs)

    metric = model.metric
    halo_radius = 2.0 * model.params.eps * (1.0 + _ROUTING_SLACK) * (1.0 + _HALO_SLACK)
    halo_raw = metric.threshold(halo_radius)
    owned: list[np.ndarray] = []
    shard_sets: list[np.ndarray] = []
    if m:
        owner = np.asarray(
            [int(s) for s in ShardPlan(
                n_shards, dim, tree, box_lows, box_highs, [], [], halo_radius
            ).assign(centers)],
            dtype=np.int64,
        )
    else:
        owner = np.empty(0, dtype=np.int64)
    for s in range(n_shards):
        owned_ids = np.flatnonzero(owner == s).astype(np.int64)
        if m:
            # dist(c, box) = dist(c, clip(c, low, high)) for the
            # coordinate-monotone metrics this repo ships; vectorized
            # over all centers at once
            proj = np.clip(centers, box_lows[s], box_highs[s])
            raw = metric.raw_to_point(centers - proj, np.zeros(centers.shape[1]))
            shard_ids = np.flatnonzero(raw <= halo_raw).astype(np.int64)
            # owned MCs are inside the box (distance 0) so near ⊇ owned;
            # assert the invariant rather than trust fp at the boundary
            shard_ids = np.union1d(shard_ids, owned_ids)
        else:
            shard_ids = owned_ids
        owned.append(owned_ids)
        shard_sets.append(shard_ids)
    return ShardPlan(
        n_shards=n_shards,
        dim=dim,
        tree=tree,
        box_lows=box_lows,
        box_highs=box_highs,
        owned_mcs=owned,
        shard_mcs=shard_sets,
        halo_radius=halo_radius,
    )


@dataclass
class ShardModel:
    """One shard's servable slice of the full model.

    ``model`` is a self-consistent :class:`FittedModel` over the
    shard's rows only (owned + halo MC members), with **global**
    cluster labels; ``global_rows[i]`` is the full-model dataset row of
    the sub-model's row ``i`` (ascending, so row-id tie-breaks agree
    with the full model).
    """

    shard_id: int
    model: FittedModel
    global_rows: np.ndarray
    mc_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def to_global_rows(self, local_rows: np.ndarray) -> np.ndarray:
        """Translate sub-model row ids (``-1`` passes through)."""
        local = np.asarray(local_rows, dtype=np.int64)
        out = np.full(local.shape, -1, dtype=np.int64)
        hit = local >= 0
        out[hit] = self.global_rows[local[hit]]
        return out


def build_shard_model(model: FittedModel, plan: ShardPlan, shard_id: int) -> ShardModel:
    """Materialise shard ``shard_id``'s sub-model from the full model.

    Rows are the union of the shard's MC member lists, sorted by global
    row id; per-MC member order is preserved (order within an MC does
    not affect answers, but keeping it makes the slice a faithful
    sub-structure).  Reachability lists are dropped — they may point at
    MCs outside the shard and online prediction never reads them.
    """
    mc_ids = plan.shard_mcs[shard_id]
    members = [model.member_rows(int(mc)) for mc in mc_ids]
    rows = (
        np.sort(np.concatenate(members)) if members else np.empty(0, dtype=np.int64)
    )
    n_local = rows.shape[0]
    local_of = {int(g): i for i, g in enumerate(rows)}
    m_local = mc_ids.shape[0]

    member_offsets = np.zeros(m_local + 1, dtype=np.int64)
    member_parts: list[np.ndarray] = []
    point_mc = np.full(n_local, -1, dtype=np.int64)
    center_rows = np.zeros(m_local, dtype=np.int64)
    for j, mc in enumerate(mc_ids):
        part = np.asarray(
            [local_of[int(g)] for g in members[j]], dtype=np.int64
        )
        member_parts.append(part)
        member_offsets[j + 1] = member_offsets[j] + part.shape[0]
        point_mc[part] = j
        center_rows[j] = local_of[int(model.center_rows[int(mc)])]
    member_flat = (
        np.concatenate(member_parts) if member_parts else np.empty(0, dtype=np.int64)
    )
    sub = FittedModel(
        points=model.points[rows] if n_local else np.empty((0, max(model.dim, 1))),
        labels=model.labels[rows],
        core_mask=model.core_mask[rows],
        point_mc=point_mc,
        center_rows=center_rows,
        member_offsets=member_offsets,
        member_flat=member_flat,
        reach_offsets=np.zeros(m_local + 1, dtype=np.int64),
        reach_flat=np.empty(0, dtype=np.int64),
        params=model.params,
        metric_name=model.metric_name,
        algorithm=model.algorithm,
        extras={},
        meta={
            **model.meta,
            "shard_id": shard_id,
            "shard_of": model.version_token(),
            "n_shard_mcs": int(m_local),
        },
    )
    return ShardModel(
        shard_id=shard_id, model=sub, global_rows=rows, mc_ids=mc_ids
    )


def merge_shard_results(
    n_queries: int,
    assignments: np.ndarray,
    per_shard: dict[int, PredictResult],
    shards: dict[int, ShardModel] | None = None,
) -> PredictResult:
    """Reassemble per-shard answers into one query-ordered result.

    ``per_shard[s]`` answers the queries with ``assignments == s`` in
    their original relative order; ``shards`` (when given) supplies the
    local→global nearest-core row translation — the fleet workers
    translate worker-side and pass ``None`` here.
    """
    labels = np.full(n_queries, -1, dtype=np.int64)
    would = np.zeros(n_queries, dtype=bool)
    nearest = np.full(n_queries, -1, dtype=np.int64)
    dist = np.full(n_queries, np.inf, dtype=np.float64)
    counts = np.zeros(n_queries, dtype=np.int64)
    for s, res in per_shard.items():
        idx = np.flatnonzero(assignments == s)
        if idx.size != len(res):
            raise ValueError(
                f"shard {s} answered {len(res)} rows for {idx.size} queries"
            )
        labels[idx] = res.labels
        would[idx] = res.would_be_core
        rows = res.nearest_core
        if shards is not None:
            rows = shards[s].to_global_rows(rows)
        nearest[idx] = rows
        dist[idx] = res.nearest_core_dist
        counts[idx] = res.n_neighbors
    return PredictResult(
        labels=labels,
        would_be_core=would,
        nearest_core=nearest,
        nearest_core_dist=dist,
        n_neighbors=counts,
    )


class ShardedPredictor:
    """In-process reference implementation of the sharded query path.

    Builds every shard sub-model up front and answers queries through
    route → per-shard :func:`predict_model` → merge — the exact data
    path the fleet runs across processes, minus the transport.  The
    parity suite holds this to bitwise equality with the full model
    (and the brute oracle) on every registry dataset; the fleet worker
    reuses the same sub-model construction and translation, so the
    proof carries over.
    """

    def __init__(self, model: FittedModel, n_shards: int) -> None:
        self.full_model = model
        self.plan = plan_shards(model, n_shards)
        self.shards = {
            s: build_shard_model(model, self.plan, s) for s in range(n_shards)
        }
        # warm each shard's routing table so timed comparisons are fair
        for shard in self.shards.values():
            shard.model.route_table

    def predict(self, queries: np.ndarray, *, block_size: int | None = None) -> PredictResult:
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim == 1:
            q = q.reshape(1, -1)
        assignments = self.plan.assign(q)
        per_shard: dict[int, PredictResult] = {}
        kwargs = {} if block_size is None else {"block_size": block_size}
        for s in np.unique(assignments):
            sub_q = q[assignments == s]
            per_shard[int(s)] = predict_model(
                self.shards[int(s)].model, sub_q, **kwargs
            )
        return merge_shard_results(
            q.shape[0], assignments, per_shard, self.shards
        )
