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
from repro.index.grid import CellGroups, hash_cells
from repro.instrumentation.counters import Counters

__all__ = ["compute_reachable"]

#: (MC, candidate) pairs one pass of the grid join scores at most;
#: larger passes run no faster and can raise the fit's peak RSS
_JOIN_PAIRS = 1 << 13


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
    therefore puts every hit pair in the same or adjacent cells, so the
    pairs of each MC with the centers of its cell's neighbour cells
    (:meth:`CellGroups.join`), a superset of its hits, are scored in
    flat passes by the tree's leaf test and the exact ``<= 3 eps`` test,
    each per pair with the probe's verdict bit for bit.  ``dist_calcs``
    and the lists come out identical to the paper's per-MC tree probe
    (kept in :mod:`repro.validation.reference`), in time proportional
    to the candidate pairs rather than ``m²``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    counters = counters if counters is not None else Counters()
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    m = centers.shape[0]
    if m == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    radius = 3.0 * eps * metric.l2_cover_factor(centers.shape[1])
    limit_raw = metric.threshold(3.0 * eps)
    origin = np.zeros(centers.shape[1])
    queries = np.arange(m) if rows is None else np.asarray(rows, dtype=np.int64)
    cells, cell_of = hash_cells(centers, radius + eps)
    q_cells, q_cell = np.unique(cell_of[queries], return_inverse=True)
    groups = CellGroups.of(cells, cell_of)
    n_hit = 0
    src, dst = [queries[:0]], [queries[:0]]
    for i, j in groups.join(cells[q_cells], q_cell, queries, _JOIN_PAIRS):
        p = np.take(centers, i, axis=0)
        q = np.take(centers, j, axis=0)
        # the tree's leaf test, p against the box q ± eps (clip is pure
        # selection: the probe's verdict bit for bit); hits are the work
        gap = p - np.clip(p, q - eps, q + eps)
        hit = np.einsum("ij,ij->i", gap, gap) <= radius * radius
        n_hit += int(np.count_nonzero(hit))
        ok = hit & (metric.raw_to_point(p - q, origin) <= limit_raw)
        src.append(i[ok])
        dst.append(j[ok])
    counters.dist_calcs += n_hit
    src_all = np.concatenate(src)
    dst_all = np.concatenate(dst)
    order = np.lexsort((dst_all, src_all))
    reach_offsets = np.r_[np.searchsorted(src_all[order], queries), src_all.shape[0]]
    return reach_offsets, dst_all[order].astype(np.int64)
