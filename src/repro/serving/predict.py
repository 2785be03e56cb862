"""Exact online assignment of new points to a fitted clustering.

Semantics (the natural DBSCAN-predict rule, under this repo's strict-<
convention — DESIGN.md §6):

* a query ``x`` joins cluster ``c`` iff some **core** point of ``c``
  lies strictly within ε of ``x``; ties between clusters are broken
  deterministically by nearest core distance, then by smallest core
  index;
* ``x`` is flagged ``would_be_core`` iff its own ε-ball holds at least
  MinPts points — the stored points strictly within ε plus ``x``
  itself (the query counts in its own neighborhood, exactly as fitted
  points do);
* otherwise ``x`` is noise (``-1``).

A point at distance *exactly* ε of a core is therefore **not** a
neighbor — the boundary tests pin this down.

Exactness argument.  For any stored point ``p ∈ MC(c)`` we have
``dist(p, c) < eps`` (MC invariant), so a stored ε-neighbor of the
query satisfies ``dist(c, x) <= dist(c, p) + dist(p, x) < 2 eps`` —
the Lemma-3 trick restricted to one hop: **only micro-clusters whose
centers lie strictly within 2ε of the query can contain ε-neighbors.**
The level-1 μR-tree shortlists those centers, and every touched MC is
then answered with one vectorized ``(queries x members)`` raw-distance
block.  Because the MCs partition the dataset, summing per-MC neighbor
counts never double-counts, and the candidate union provably contains
every ε-neighbor, so the pruned answer equals the brute-force one
(:func:`brute_predict`, the test oracle).

Two floating-point details make that equality *bitwise*, not merely
approximate.  First, the member-level blocks use
``metric.raw_pairwise_stable`` — the direct ``sum((x - y)^2)`` form
whose entries depend only on the point pair, never on the block shape
(the BLAS expansion trick is shape-dependent in the last ulp, which
flips strict-< for queries engineered onto the ε boundary).  The
oracle uses the same kernel, so both sides compare identical raw
values.  Second, the 2ε routing radius is widened by a relative
``1e-6`` so rounding in the center distances cannot prune a
micro-cluster whose true center distance is marginally under 2ε;
routing is pruning-only, so the widening never changes an answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.instrumentation.counters import Counters
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE
from repro.observability.tracing import maybe_span

__all__ = ["PredictResult", "predict_model", "brute_predict"]

#: sentinel "no core neighbor" row — larger than any real dataset row
_NO_ROW = np.iinfo(np.int64).max

#: relative widening of the 2ε routing radius.  Routing only *prunes* —
#: the per-member strict-< test decides — so widening can never change
#: an answer; it only keeps floating-point rounding in the center
#: distances from dropping a micro-cluster whose true center distance
#: is marginally under 2ε.
_ROUTING_SLACK = 1e-6


@dataclass
class PredictResult:
    """Per-query answers of one prediction batch.

    Attributes
    ----------
    labels:
        ``(k,)`` assigned cluster ids (``-1`` = noise).
    would_be_core:
        ``(k,)`` whether each query's own ε-ball (query included)
        holds ≥ MinPts points.
    nearest_core:
        ``(k,)`` dataset row of the deciding core point (``-1`` when
        the query is noise).
    nearest_core_dist:
        ``(k,)`` true distance to that core (``inf`` when noise).
    n_neighbors:
        ``(k,)`` stored points strictly within ε (query not counted).
    """

    labels: np.ndarray
    would_be_core: np.ndarray
    nearest_core: np.ndarray
    nearest_core_dist: np.ndarray
    n_neighbors: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def as_payload(self) -> dict:
        """JSON-ready dict (the HTTP ``/predict`` response body)."""
        dists = [
            None if not np.isfinite(d) else float(d)
            for d in self.nearest_core_dist
        ]
        return {
            "labels": self.labels.tolist(),
            "would_be_core": self.would_be_core.tolist(),
            "nearest_core": self.nearest_core.tolist(),
            "nearest_core_dist": dists,
            "n_neighbors": self.n_neighbors.tolist(),
        }


def _as_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.ndim != 2 or (q.shape[0] and q.shape[1] != dim):
        raise ValueError(
            f"queries must be (k, {dim}), got shape {np.shape(queries)}"
        )
    return q


def _finalize(
    labels_src: np.ndarray,
    min_pts: int,
    metric: Metric,
    best_raw: np.ndarray,
    best_row: np.ndarray,
    counts: np.ndarray,
) -> PredictResult:
    """Shared tail: sentinel → (-1, inf) and the MinPts rule."""
    has_core = best_row != _NO_ROW
    if labels_src.size:
        labels = np.where(has_core, labels_src[np.where(has_core, best_row, 0)], -1)
    else:
        labels = np.full(has_core.shape, -1, dtype=np.int64)
    nearest = np.where(has_core, best_row, -1)
    dist = np.where(has_core, metric.dist_from_raw(best_raw), np.inf)
    return PredictResult(
        labels=labels.astype(np.int64),
        would_be_core=(counts + 1) >= min_pts,  # the query counts itself
        nearest_core=nearest.astype(np.int64),
        nearest_core_dist=dist.astype(np.float64),
        n_neighbors=counts.astype(np.int64),
    )


def predict_model(
    model,
    queries: np.ndarray,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    counters: Counters | None = None,
) -> PredictResult:
    """Assign ``queries`` to the fitted clustering, exactly.

    When a tracer is active, the call produces a ``serving.predict``
    span with ``serving.route`` (2ε MC shortlisting) and
    ``serving.score`` (per-MC distance blocks) nested under it.
    """
    with maybe_span("serving.predict"):
        return _predict_impl(
            model, queries, block_size=block_size, counters=counters
        )


def _predict_impl(
    model,
    queries: np.ndarray,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    counters: Counters | None = None,
) -> PredictResult:
    """Assign ``queries`` to the fitted clustering, exactly.

    One vectorized raw-distance block per *touched* micro-cluster:
    queries are routed to candidate MCs through the level-1 tree (2ε
    center rule), inverted into per-MC query groups, and each group is
    answered in ``block_size``-row chunks against the MC's member
    coordinates.

    Parameters
    ----------
    model:
        A :class:`repro.serving.model.FittedModel`.
    queries:
        ``(k, d)`` (or a single ``(d,)``) query coordinates; any
        numeric dtype.
    block_size:
        Row budget per transient distance matrix.
    counters:
        Work counters to charge (default: the model's serving
        counters).
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    q = _as_queries(queries, model.dim)
    k = q.shape[0]
    counters = counters if counters is not None else model.serving_counters
    metric = model.metric
    murtree = model.murtree
    eps = model.params.eps
    eps_raw = metric.threshold(eps)
    route_r = 2.0 * eps * (1.0 + _ROUTING_SLACK)
    route_raw = metric.threshold(route_r)
    cover = metric.l2_cover_factor(model.dim) if model.dim else 1.0

    counts = np.zeros(k, dtype=np.int64)
    best_raw = np.full(k, np.inf, dtype=np.float64)
    best_row = np.full(k, _NO_ROW, dtype=np.int64)
    counters.queries_run += k

    if k == 0 or model.n == 0:
        return _finalize(
            model.labels, model.params.min_pts, metric, best_raw, best_row, counts
        )

    # route queries to candidate MCs (level-1 shortlist + exact strict-<
    # 2ε center test), inverted to one query group per touched MC
    by_mc: dict[int, list[int]] = {}
    level1 = murtree.level1
    with maybe_span("serving.route", queries=k):
        for i in range(k):
            cand = level1.query_ball_candidates(q[i], route_r * cover)
            if not cand:
                continue
            cand_arr = np.asarray(cand, dtype=np.int64)
            centers = np.stack([murtree.mcs[int(c)].center for c in cand_arr])
            counters.dist_calcs += int(cand_arr.shape[0])
            raw = metric.raw_to_point(centers, q[i])
            for mc_id in cand_arr[raw <= route_raw]:
                by_mc.setdefault(int(mc_id), []).append(i)

    with maybe_span("serving.score", touched_mcs=len(by_mc)):
        for mc_id, q_idx_list in by_mc.items():
            mc = murtree.mcs[mc_id]
            assert mc.member_rows is not None and mc.member_points is not None
            rows = mc.member_rows
            core_cols = np.flatnonzero(model.core_mask[rows])
            core_rows = rows[core_cols]
            q_idx = np.asarray(q_idx_list, dtype=np.int64)
            counters.dist_calcs += int(q_idx.size) * int(rows.shape[0])
            for start in range(0, q_idx.size, block_size):
                chunk = q_idx[start : start + block_size]
                raw_mat = metric.raw_pairwise_stable(q[chunk], mc.member_points)
                within = raw_mat < eps_raw
                counts[chunk] += np.count_nonzero(within, axis=1)
                if not core_cols.size:
                    continue
                raw_core = np.where(
                    within[:, core_cols], raw_mat[:, core_cols], np.inf
                )
                mc_best = raw_core.min(axis=1)
                hit = np.isfinite(mc_best)
                if not hit.any():
                    continue
                # among columns achieving the minimum, take the smallest
                # global row — the deterministic tie-break
                mc_row = np.where(
                    raw_core <= mc_best[:, None], core_rows[None, :], _NO_ROW
                ).min(axis=1)
                tgt = chunk[hit]
                better = mc_best[hit] < best_raw[tgt]
                tie = (mc_best[hit] == best_raw[tgt]) & (mc_row[hit] < best_row[tgt])
                take = better | tie
                upd = tgt[take]
                best_raw[upd] = mc_best[hit][take]
                best_row[upd] = mc_row[hit][take]

    return _finalize(
        model.labels, model.params.min_pts, metric, best_raw, best_row, counts
    )


def brute_predict(
    points: np.ndarray,
    labels: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
    min_pts: int,
    queries: np.ndarray,
    *,
    metric: str | Metric = EUCLIDEAN,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> PredictResult:
    """Oracle: the same prediction rule with no index, no pruning.

    Computes every query-to-point distance and applies the
    nearest-core-within-ε / MinPts rules directly.  The parity tests
    hold :func:`predict_model` to this, query for query.
    """
    metric = get_metric(metric)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    core_mask = np.asarray(core_mask, dtype=bool)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    q = _as_queries(queries, pts.shape[1])
    k = q.shape[0]
    eps_raw = metric.threshold(eps)

    counts = np.zeros(k, dtype=np.int64)
    best_raw = np.full(k, np.inf, dtype=np.float64)
    best_row = np.full(k, _NO_ROW, dtype=np.int64)
    if pts.shape[0]:
        core_rows = np.flatnonzero(core_mask)
        for start in range(0, k, block_size):
            sl = slice(start, start + block_size)
            raw = metric.raw_pairwise_stable(q[sl], pts)
            within = raw < eps_raw
            counts[sl] = np.count_nonzero(within, axis=1)
            if core_rows.size:
                raw_core = np.where(
                    within[:, core_rows], raw[:, core_rows], np.inf
                )
                best_raw[sl] = raw_core.min(axis=1)
                hit = np.isfinite(best_raw[sl])
                rows_pick = np.where(
                    raw_core <= best_raw[sl][:, None], core_rows[None, :], _NO_ROW
                ).min(axis=1)
                best_row[sl] = np.where(hit, rows_pick, _NO_ROW)
    return _finalize(labels, min_pts, metric, best_raw, best_row, counts)
