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
Because the MCs partition the dataset, summing per-MC neighbor counts
never double-counts, and the candidate union provably contains every
ε-neighbor, so the pruned answer equals the brute-force one
(:func:`brute_predict`, the test oracle).

Routing: center cells.  :class:`RouteTable` hashes a model's MC
centers once into cubic cells at least ``R = 2ε·(1 + slack)`` wide
(:func:`repro.index.grid.hash_cells`).  Each axis difference is
bounded by the distance, ``|x_i - y_i| <= d(x, y)``, for L1, L2 and
L∞ alike, so a center within ``R`` of a query differs from it by at
most ``R`` on every axis and sits in the query's cell or an adjacent
one.  A request's queries are hashed with the same width, their cells
joined to the center cells (:meth:`repro.index.grid.CellGroups.join`),
and each (query, MC) pair so found is kept when the center passes the
``<= R`` test.  The width is widened the way ``hash_cells`` widens
it: relatively by 2**-20 for rounding in ``R``, and absolutely by
2**-40 of the centers' largest |coordinate| ``S`` for rounding that
grows with magnitude.  ``x / width`` is off by at most 2**-53 of
itself; the absolute term widens each cell by 2**-40 of ``S / width``
cells, 2**13 times more.  That is why the cells come from a width
derived from the *centers'* magnitude, and why a query within ``R``
of a center — so no farther out than ``S + R`` — still lands in a
cell adjacent to the center's after rounding.  A query with a
coordinate more than two cell widths beyond ``S`` (NaN and ±inf
included) is within ``R`` of no center: it routes nowhere and is
answered as noise with 0 neighbors, without ever reaching the
integer cast, and every routed quotient stays within ±(2**40 + 2).

Scoring: one per-pair kernel.  The surviving (query, MC) pairs are
expanded to (query, member) pairs through the stored member CSR and
scored in passes of at most ``repro.index.grid._PAIR_BUDGET`` pairs
(:func:`~repro.index.grid.pair_passes`) and at most ``block_size``
query rows; counts, the nearest core and its smallest-row tie-break
come from segment reductions over each query's run of pairs.

Two floating-point details make the equality with the oracle *bitwise*,
not merely approximate.  First, each pair is scored with
``metric.raw_to_point`` on the pair's coordinate difference — the
direct ``sum((x - y)^2)`` form, whose value depends only on the point
pair, never on the pass it was computed in (the BLAS expansion trick
is shape-dependent in the last ulp, which flips strict-< for queries
engineered onto the ε boundary).  The oracle's
``metric.raw_pairwise_stable`` is the same form, so both sides compare
identical raw values.  Second, the 2ε routing radius is widened by a
relative ``1e-6`` so rounding in the center distances cannot prune a
micro-cluster whose true center distance is marginally under 2ε;
routing is pruning-only, so the widening never changes an answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.index.grid import (
    NO_ID,
    CellGroups,
    cell_width,
    hash_cells,
    pair_passes,
    run_minima,
    run_starts,
)
from repro.instrumentation.counters import Counters
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE
from repro.observability.tracing import maybe_span

__all__ = ["PredictResult", "RouteTable", "predict_model", "brute_predict"]

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
    has_core = best_row != NO_ID
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


@dataclass(frozen=True)
class RouteTable:
    """A model's MC centers hashed into routing cells (module docstring).

    Built once per model and cached on it
    (:attr:`repro.serving.model.FittedModel.route_table`); every
    request hashes its queries with the same width and joins them to
    the MC ids grouped by center cell, :attr:`groups`.
    """

    #: widened 2ε routing radius ``R``
    reach: float
    #: largest |center coordinate|: with ``reach`` it fixes the width
    scale: float
    #: queries with a larger |coordinate| route to no center
    limit: float
    centers: np.ndarray
    groups: CellGroups

    @classmethod
    def build(cls, model) -> "RouteTable":
        reach = 2.0 * model.params.eps * (1.0 + _ROUTING_SLACK)
        centers = np.ascontiguousarray(model.points[model.center_rows])
        scale = float(np.abs(centers).max()) if centers.size else 0.0
        return cls(
            reach=reach,
            scale=scale,
            limit=scale + 2.0 * cell_width(reach, scale),
            centers=centers,
            groups=CellGroups.of(*hash_cells(centers, reach, scale=scale)),
        )

    def route(
        self, q: np.ndarray, metric: Metric
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The (query, MC) pairs of ``q`` whose center passes the
        widened 2ε test, as query-major ``(query_idx, mc_ids)``, and
        the number of center distances computed."""
        rows = np.flatnonzero((np.abs(q) <= self.limit).all(axis=1))
        if not rows.size:
            return rows, rows, 0
        route_raw = metric.threshold(self.reach)
        origin = np.zeros(q.shape[1])
        q_idx, mc_ids = [rows[:0]], [rows[:0]]
        tested = 0
        for idx, mc in self.groups.join(
            *hash_cells(q[rows], self.reach, scale=self.scale), rows
        ):
            tested += idx.shape[0]
            diff = np.take(self.centers, mc, axis=0)
            diff -= np.take(q, idx, axis=0)
            keep = metric.raw_to_point(diff, origin) <= route_raw
            q_idx.append(idx[keep])
            mc_ids.append(mc[keep])
        return np.concatenate(q_idx), np.concatenate(mc_ids), tested


def _score_pass(
    model,
    q: np.ndarray,
    q_idx: np.ndarray,
    rows: np.ndarray,
    eps_raw: float,
    counts: np.ndarray,
    best_raw: np.ndarray,
    best_row: np.ndarray,
) -> None:
    """Score one pass of (query, member) pairs, ``q_idx`` ascending,
    into the running per-query ``counts`` and nearest core
    ``(best_raw, best_row)`` — smallest raw value, then smallest row."""
    diff = np.take(model.points, rows, axis=0)
    diff -= np.take(q, q_idx, axis=0)
    raw = model.metric.raw_to_point(diff, np.zeros(q.shape[1]))
    hit = raw < eps_raw
    run = run_starts(q_idx)
    counts[q_idx[run]] += np.add.reduceat(hit, run, dtype=np.int64)
    core = np.flatnonzero(hit & model.core_mask[rows])
    if not core.size:
        return
    tgt, low, low_row = run_minima(q_idx[core], raw[core], rows[core])
    take = (low < best_raw[tgt]) | ((low == best_raw[tgt]) & (low_row < best_row[tgt]))
    best_raw[tgt[take]] = low[take]
    best_row[tgt[take]] = low_row[take]


def predict_model(
    model,
    queries: np.ndarray,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    counters: Counters | None = None,
) -> PredictResult:
    """Assign ``queries`` to the fitted clustering, exactly.

    Each block of at most ``block_size`` query rows is routed through
    the model's :class:`RouteTable` (2ε center cells) and its
    (query, member) pairs scored in flat passes; see the module
    docstring for why the answer equals :func:`brute_predict`'s.
    When a tracer is active, the call produces a ``serving.predict``
    span with one ``serving.route`` and one ``serving.score`` span
    per block nested under it.

    Parameters
    ----------
    model:
        A :class:`repro.serving.model.FittedModel`.
    queries:
        ``(k, d)`` (or a single ``(d,)``) query coordinates; any
        numeric dtype.
    block_size:
        Query rows routed and scored together.
    counters:
        Work counters to charge (default: the model's serving
        counters).
    """
    with maybe_span("serving.predict"):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        q = _as_queries(queries, model.dim)
        k = q.shape[0]
        counters = counters if counters is not None else model.serving_counters
        counters.queries_run += k
        counts = np.zeros(k, dtype=np.int64)
        best_raw = np.full(k, np.inf, dtype=np.float64)
        best_row = np.full(k, NO_ID, dtype=np.int64)
        if k and model.n:
            table = model.route_table
            eps_raw = model.metric.threshold(model.params.eps)
            offsets = model.member_offsets
            for lo in range(0, k, block_size):
                block = slice(lo, lo + block_size)
                qb = q[block]
                with maybe_span("serving.route", queries=qb.shape[0]):
                    q_idx, mc, tested = table.route(qb, model.metric)
                sizes = offsets[mc + 1] - offsets[mc]
                pairs = int(sizes.sum())
                counters.dist_calcs += tested + pairs
                with maybe_span("serving.score", mc_pairs=mc.size, pairs=pairs):
                    # the block's slices are views: passes write through
                    for idx, pos in pair_passes(q_idx, offsets[mc], sizes):
                        _score_pass(
                            model, qb, idx, model.member_flat[pos], eps_raw,
                            counts[block], best_raw[block], best_row[block],
                        )
        return _finalize(
            model.labels, model.params.min_pts, model.metric, best_raw, best_row, counts
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
    best_row = np.full(k, NO_ID, dtype=np.int64)
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
                    raw_core <= best_raw[sl][:, None], core_rows[None, :], NO_ID
                ).min(axis=1)
                best_row[sl] = np.where(hit, rows_pick, NO_ID)
    return _finalize(labels, min_pts, metric, best_raw, best_row, counts)
