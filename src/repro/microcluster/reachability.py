"""Reachable micro-clusters — Algorithm 5 (FIND-REACHABLE-MC).

``MC(q)`` is *reachable* from ``MC(p)`` when their centers are at most
``3 eps`` apart.  Lemma 3: the ε-neighborhood of any member of ``MC(p)``
lies entirely inside the union of ``MC(p)``'s reachable MCs, so every
neighborhood query afterwards touches only the reachable list — this is
the paper's first search-space reduction.

The list is symmetric and includes the MC itself (center distance 0).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.geometry.regions import sphere_intersects_rects_block
from repro.index.grid import hash_cells, neighbor_cells, neighbor_members
from repro.instrumentation.counters import Counters

__all__ = ["compute_reachable"]

#: element budget (rows x candidates x d) of one distance block of the
#: grid join — bounds each float64 temporary to 4 MiB
_JOIN_TEMP_ELEMS = 1 << 19


def compute_reachable(
    centers: np.ndarray,
    eps: float,
    counters: Counters | None = None,
    metric: Metric = EUCLIDEAN,
    *,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reachable MCs of every MC, given the ``(m, d)`` MC centers.

    Returns the CSR ``(reach_offsets, reach_flat)``: MC ``i``'s
    reachable MC ids are ``reach_flat[reach_offsets[i]:reach_offsets[i
    + 1]]``, sorted ascending.

    ``rows`` (ascending MC ids; default all) restricts the join to the
    lists of those MCs: the CSR then holds MC ``rows[i]``'s list at
    position ``i``, and each list and its ``dist_calcs`` are the full
    join's.  The streaming engine joins only the MCs a batch founds
    this way, and gets the rest of their entries from symmetry.

    A spatial join over a uniform grid of the centers; the paper's
    first-level tree is not needed.  The paper probes that tree once per
    MC, and the probe's candidate set is exactly the set of
    ``center ± eps`` boxes the ball ``B(center, 3 eps · cover)`` touches
    (internal-node pruning never rejects a hit leaf), and a box can only
    be touched when ``|Δ| <= 3 eps · cover + eps`` on every axis.
    Hashing the centers into cells slightly wider than that bound
    therefore puts every hit pair in the same or adjacent cells, so each
    occupied cell replays the tree's ball-vs-box predicate and the exact
    ``<= 3 eps`` test on the centers of its neighbouring cells only — a
    superset of its hits.  ``dist_calcs`` and the lists come out
    identical to the paper's per-MC tree probe (kept in
    :mod:`repro.validation.reference`), in time proportional to the
    candidate pairs rather than ``m²``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    counters = counters if counters is not None else Counters()
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    m = centers.shape[0]
    if m == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    d = centers.shape[1]
    radius = 3.0 * eps * metric.l2_cover_factor(d)
    limit_raw = metric.threshold(3.0 * eps)
    lows = centers - eps
    highs = centers + eps
    queries = np.arange(m) if rows is None else np.asarray(rows, dtype=np.int64)
    cells, cell_of = hash_cells(centers, radius + eps)
    by_cell = np.argsort(cell_of, kind="stable")  # ids grouped by cell
    per_cell = np.bincount(cell_of, minlength=cells.shape[0])
    start = np.zeros(cells.shape[0] + 1, dtype=np.int64)
    np.cumsum(per_cell, out=start[1:])
    # the queried MCs grouped by cell: q_cells[c]'s are
    # q_by_cell[q_start[c]:q_start[c + 1]]
    q_by_cell = queries[np.argsort(cell_of[queries], kind="stable")]
    q_cells, q_start = np.unique(cell_of[q_by_cell], return_index=True)
    q_start = np.r_[q_start, q_by_cell.shape[0]]
    # candidates of q_cells[c]: the members of its neighbour cells, flattened
    cand_start, cand = neighbor_members(
        *neighbor_cells(cells[q_cells], cells), start[:-1], per_cell, by_cell
    )

    n_hit = 0
    src: list[np.ndarray] = [queries[:0]]
    dst: list[np.ndarray] = [queries[:0]]
    for c in range(q_cells.shape[0]):
        rows = q_by_cell[q_start[c] : q_start[c + 1]]
        ids = cand[cand_start[c] : cand_start[c + 1]]
        c_lows, c_highs, c_centers = lows[ids], highs[ids], centers[ids]
        step = max(1, _JOIN_TEMP_ELEMS // (ids.shape[0] * d))
        for s in range(0, rows.shape[0], step):
            sub_rows = rows[s : s + step]
            sub = centers[sub_rows]
            hit = sphere_intersects_rects_block(sub, radius, c_lows, c_highs)
            ok = hit & (metric.raw_pairwise_stable(sub, c_centers) <= limit_raw)
            n_hit += int(np.count_nonzero(hit))
            i, j = np.nonzero(ok)
            src.append(sub_rows[i])
            dst.append(ids[j])
    counters.dist_calcs += n_hit
    src_all = np.concatenate(src)
    dst_all = np.concatenate(dst)
    order = np.lexsort((dst_all, src_all))
    reach_offsets = np.r_[np.searchsorted(src_all[order], queries), src_all.shape[0]]
    return reach_offsets, dst_all[order].astype(np.int64)
