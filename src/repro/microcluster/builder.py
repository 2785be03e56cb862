"""Micro-cluster construction — Algorithm 3 (BUILD-MICRO-CLUSTERS).

Points are scanned once.  For each point ``p``:

1. Search for an existing MC whose *center* is strictly within ``eps``
   of ``p`` → join it (nearest such center, lowest ``mc_id`` on exact
   ties, for determinism; the paper takes the first encountered, which
   depends on tree layout — either choice yields a valid MC partition).
2. Otherwise, if some center lies within ``2 eps``, defer ``p`` to the
   ``unassignedList``.  Creating a new MC here would carve out a ball
   heavily overlapping an existing one; deferral keeps the MC count
   ``m`` low, which is what makes the ``n log m`` term of the paper's
   complexity analysis small.  Deferred points usually get absorbed by
   MCs created later in the scan.
3. Otherwise create a new MC centered at ``p``.

A second pass re-processes the ``unassignedList``: join a center within
``eps`` if one exists by now, else create an MC (no deferral the second
time — every point must land somewhere).

The scan may also start from MCs that already exist (``centers``): the
streaming engine places every batch, and every compaction's rows, this
way against its live MCs.

The paper's first-level R-tree stores each MC as the fixed box
``center ± eps``: every member is strictly within ``eps`` of the center,
so the box bounds the MC forever and never needs widening on insertion.

The sweep is vectorized (docs/ALGORITHM.md, "Grid-hash builder"):
points are hashed into cells just wider than a candidate search
reaches; per row-order block, a join over adjacent cells lists each
point's candidate centers, and flat pair chunks replay the tree's leaf
test against the ``center ± eps`` boxes and the scan's distances.  The
block's own MC creations are then replayed against its rows of
adjacent cells in founding rounds: a row that would found an MC does so
for certain once no undecided such row precedes it in its own or an
adjacent cell, and each round makes all of its newborns visible to
later rows in bounded pair passes.  When a round finds fewer than
``_ROUND_MIN_FOUNDERS`` newborns (a chain, where each founder waits on
the one before it), or where the ``3^d`` stencil does not apply, a walk
finishes the block in scan order, one newborn at a time.  No tree is
built: :func:`build_micro_cluster_arrays` returns the MC structure as
arrays straight from one sort.  Labels, ``point_mc``, MC membership
order and every counter are **bit-identical** to the paper's per-point
scan (one R-tree probe per point, a dynamic ``tree.insert`` per created
MC), which :mod:`repro.validation.reference` keeps as the comparison
reference; the parity suite in ``tests/test_builder.py`` pins it, with
each founding path forced on every block.
:func:`build_micro_clusters` is the per-MC object view of the same
result, with an STR-packed first-level tree, for inspection and tests.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.index.bulk import str_bulk_load
from repro.index.grid import (
    hash_cells,
    neighbor_cells,
    neighbor_members,
    pair_passes,
    run_minima,
)
from repro.index.rtree import RTree
from repro.instrumentation.counters import Counters
from repro.microcluster.microcluster import MicroCluster

__all__ = [
    "build_micro_cluster_arrays",
    "build_micro_clusters",
    "DEFAULT_BUILDER_BLOCK_SIZE",
]

#: rows per vectorized sweep block
DEFAULT_BUILDER_BLOCK_SIZE = 4096

#: (row, center) pairs per chunk of whole rows in the builder's gather,
#: and per pass of a founding round — keeps each ``(pairs, d)`` float64
#: temporary small
_PAIR_BUDGET = 4096

#: a founding round that finds fewer newborns than this hands the rest
#: of its block to the walk, one newborn at a time: a round costs a few
#: dozen array calls whatever it finds, a walk step about 15.  Builder
#: CPU with thresholds 1 / 8 / 64: the perfbench ``halos`` input (48
#: rounds over 7 blocks at 8) 0.093 / 0.093 / 0.108 s; 20,000 uniform
#: 3-D points 0.178 / 0.186 / 0.219 s; a 20,000-point chain 0.7ε apart
#: 1.43 / 0.30 / 0.29 s; ``blobs`` (each block walks after one round
#: at 8) 0.33 / 0.29 / 0.29 s.  Thresholds 2, 4 and 16 read within 6%
#: of 8 on each.  Median CPU of 7 interleaved runs, one BLAS thread,
#: 2-vCPU VM.
_ROUND_MIN_FOUNDERS = 8


def build_micro_cluster_arrays(
    points: np.ndarray,
    eps: float,
    *,
    counters: Counters | None = None,
    defer_2eps: bool = True,
    metric: Metric = EUCLIDEAN,
    block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
    centers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run Algorithm 3 over ``points``.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset.
    eps:
        DBSCAN ε (MC radius).
    defer_2eps:
        The 2ε ``unassignedList`` rule.  ``False`` disables deferral
        (ablation 1 in DESIGN.md §5): every unassignable point
        immediately founds a new MC.
    block_size:
        Rows per vectorized sweep block.
    centers:
        ``(k, d)`` centers of MCs ``0..k-1`` that exist before the
        scan's first row (the streaming engine's live MCs); rows join,
        defer against and are founded beside them exactly as if they
        had been created earlier in the same scan.  ``None`` (the fit)
        means ``k = 0``.

    Returns
    -------
    ``(point_mc, center_rows, member_offsets, member_flat)``:
    ``point_mc[i]`` is the MC id of dataset point ``i`` (below ``k``:
    it joined a given center), ``center_rows[j]`` the row that founded
    MC ``k + j``, and MC ``c``'s rows of ``points`` are
    ``member_flat[member_offsets[c]:member_offsets[c + 1]]`` in
    assignment order, a founder first.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    counters = counters if counters is not None else Counters()
    centers = pts[:0] if centers is None else np.asarray(centers, dtype=np.float64)
    if centers.shape[1:] != pts.shape[1:]:
        raise ValueError(f"centers must be (k, {pts.shape[1]}), got {centers.shape}")
    n_centers = centers.shape[0]
    if pts.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.zeros(n_centers + 1, dtype=np.int64), empty
    if n_centers:  # the centers are the scan's rows 0..k-1, MCs 0..k-1
        pts = np.concatenate([centers, pts])
    n, dim = pts.shape
    cover = metric.l2_cover_factor(dim)
    eps_raw = metric.threshold(eps)
    two_eps_raw = metric.threshold(2.0 * eps)
    search_radius = (2.0 * eps if defer_2eps else eps) * cover

    point_mc = np.full(n, -1, dtype=np.int64)
    deferred: list[int] = []
    assigned: list[np.ndarray] = []  # rows in scan assignment order
    # a point's ball of search_radius can only touch a center's ε-box
    # when |Δ| <= search_radius + eps on every axis, so every candidate
    # pair of either pass lies in the same or adjacent cells
    cells, cell_of = hash_cells(pts, search_radius + eps)
    k = cells.shape[0]
    stencil = 3**dim <= k
    if stencil:  # the adjacent cells of every cell a swept row lies in, once
        swept = np.flatnonzero(np.bincount(cell_of[n_centers:], minlength=k))
        swept_ptr, adj = neighbor_cells(cells[swept], cells)
        adj_count = np.zeros(k, dtype=np.int64)  # none for the centers' other cells
        adj_count[swept] = np.diff(swept_ptr)
        adj_ptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(adj_count, out=adj_ptr[1:])
        # a block's rows by cell: cell c's start at b_first[c], b_count[c]
        # of them (zero outside the block)
        b_first, b_count = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    # MC ids by cell, in creation order: cell c's are
    # slots[slot_lo[c]:slot_lo[c] + fill[c]] (it has room for all its rows)
    slot_lo = np.r_[0, np.cumsum(np.bincount(cell_of))[:-1]]
    fill = np.zeros(k, dtype=np.int64)
    slots = np.empty(n, dtype=np.int64)
    center_rows = np.empty(n, dtype=np.int64)  # each MC's founder row
    m = 0  # MCs so far
    no_id = np.iinfo(np.int64).max
    origin = np.zeros(dim)

    def file(born: np.ndarray) -> None:
        """Make the rows ``born`` MCs ``m, m + 1, ...`` and file each
        after its cell's earlier MCs."""
        nonlocal m
        ids = np.arange(m, m + born.shape[0])
        point_mc[born], center_rows[ids] = ids, born
        by = np.argsort(cell_of[born], kind="stable")
        c = cell_of[born][by]
        rank = np.arange(c.shape[0]) - np.searchsorted(c, c)  # within cell
        slots[slot_lo[c] + fill[c] + rank] = ids[by]
        np.add.at(fill, c, 1)
        m += born.shape[0]

    def gather(
        bpts: np.ndarray,
        b_of: np.ndarray,
        indptr: np.ndarray,
        nbrs: np.ndarray,
        radius: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row candidate count, lowest raw distance and lowest id
        reaching it, against the centers existing *before* this block:
        the MCs filed under each block cell's adjacent cells
        ``nbrs[indptr[c]:indptr[c + 1]]``, a superset of the tree probe's
        candidates, filtered pair by pair with the tree's leaf test."""
        B = bpts.shape[0]
        cnt = np.zeros(B, dtype=np.int64)
        best_raw = np.full(B, np.inf)
        best_id = np.full(B, -1, dtype=np.int64)
        if m == 0:
            return cnt, best_raw, best_id
        start, cand = neighbor_members(indptr, nbrs, slot_lo, fill, slots)
        # the pairs of row i are cand[start[b_of[i]]:...], laid end to
        # end and tested in chunks of whole rows, ~_PAIR_BUDGET pairs each
        per_row = np.diff(start)[b_of]
        row_end = np.cumsum(per_row)
        offset = start[b_of] - row_end + per_row
        cuts = np.arange(_PAIR_BUDGET, row_end[-1], _PAIR_BUDGET)
        edges = np.unique(np.r_[0, np.searchsorted(row_end, cuts, side="right"), B])
        r2 = radius * radius
        for r0, r1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
            rows = np.repeat(np.arange(r0, r1), per_row[r0:r1])
            pair = np.arange(row_end[r0] - per_row[r0], row_end[r1 - 1])
            ids = cand[pair + offset[rows]]
            p = np.take(bpts, rows, axis=0)
            q = np.take(pts, np.take(center_rows, ids), axis=0)
            # the tree's leaf test: the ball around p against q's ε-box
            diff = p - np.clip(p, q - eps, q + eps)
            hit = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= r2)
            if hit.size == 0:
                continue
            rows, ids = rows[hit], ids[hit]
            # the reference scan's raw_to_point(centers, p) pair by pair: center - p
            # is formed first, then reduced exactly as there
            raw = metric.raw_to_point(q[hit] - p[hit], origin)
            # segment reductions over each row's run of hits
            head = np.r_[True, rows[1:] != rows[:-1]]
            first = np.flatnonzero(head)
            seg = np.cumsum(head) - 1
            rows = rows[first]
            cnt[rows] = np.bincount(seg)
            low = np.minimum.reduceat(raw, first)
            ties = np.where(raw == low[seg], ids, no_id)
            best_raw[rows], best_id[rows] = low, np.minimum.reduceat(ties, first)
        return cnt, best_raw, best_id

    def newborns(
        bpts: np.ndarray,
        b_cells: np.ndarray,
        b_of: np.ndarray,
        indptr: np.ndarray,
        nbrs: np.ndarray,
        cnt: np.ndarray,
        best_raw: np.ndarray,
        best_id: np.ndarray,
        placed: float,
        r2: float,
    ) -> np.ndarray:
        """The mask of the block's rows that found MCs, decided in
        founding rounds and then by the walk.  Each newborn is made
        visible to the block's later rows of adjacent cells exactly as a
        dynamic tree insert would: the leaf test bumps ``cnt``, and the
        scan's raw distance competes for ``best_raw`` / ``best_id``.
        ``best_id`` ends as MC ids."""
        # listed rows would found an MC against the centers before the
        # block; a newborn can only take rows off the list
        found = ~((cnt > 0) & (best_raw < placed))
        todo = np.flatnonzero(found)
        if todo.size == 0:
            return found
        lows, highs = bpts - eps, bpts + eps  # each row's box as a center
        near = None
        if stencil:  # block rows of each cell's adjacent cells
            per_cell = np.bincount(b_of)
            b_first[b_cells] = np.cumsum(per_cell) - per_cell
            b_count[b_cells] = per_cell
            near_start, near = neighbor_members(
                indptr, nbrs, b_first, b_count, np.argsort(b_of, kind="stable")
            )
            b_count[b_cells] = 0
        # until the block ends, newborn row i is known by the key m + i,
        # which orders newborns as their MC ids will
        if near is not None and todo.size >= _ROUND_MIN_FOUNDERS:
            # founding rounds: an undecided listed row founds an MC for
            # certain once no other precedes it in its own or an adjacent
            # cell, where every row that could take it off the list lies;
            # a round's newborns are made visible in bounded pair passes
            at = np.minimum(np.searchsorted(b_cells, nbrs), b_cells.shape[0] - 1)
            in_block = b_cells[at] == nbrs
            adj_b = at[in_block]  # each block cell's adjacent block cells
            adj_b_lo = np.r_[0, np.cumsum(in_block)][indptr[:-1]]
            while True:
                # the first undecided row of each cell, then of each
                # cell's neighbourhood
                first = np.full(b_cells.shape[0], bpts.shape[0])
                np.minimum.at(first, b_of[todo], todo)
                first = np.minimum.reduceat(first[adj_b], adj_b_lo)
                certain = first[b_of[todo]] == todo
                born = todo[certain]
                if born.size < _ROUND_MIN_FOUNDERS:
                    break
                u = b_of[born]
                lengths = near_start[u + 1] - near_start[u]
                for own, k in pair_passes(born, near_start[u], lengths, _PAIR_BUDGET):
                    later = near[k]
                    keep = later > own
                    own, later = own[keep], later[keep]
                    rest = np.take(bpts, later, axis=0)
                    diff = rest - np.clip(rest, lows[own], highs[own])
                    hit = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= r2)
                    if hit.size == 0:
                        continue
                    own, later = own[hit], later[hit]
                    np.add.at(cnt, later, 1)
                    # the walk's raw_to_point(rest, bpts[i]), pair by pair
                    raw = metric.raw_to_point(rest[hit] - bpts[own], origin)
                    by = np.argsort(later, kind="stable")
                    row, low, key = run_minima(later[by], raw[by], own[by] + m)
                    # strict <, as the walk: two newborns within ε of a
                    # row lie in adjacent cells, so the earlier is decided,
                    # and made visible, first and keeps an exact tie
                    take = low < best_raw[row]
                    best_raw[row[take]], best_id[row[take]] = low[take], key[take]
                    found[row] = ~(best_raw[row] < placed)
                todo = todo[~certain & found[todo]]
        if near is not None and todo.size:
            near_at, cell_list = near_start.tolist(), b_of.tolist()
        # the walk: the rest in scan order, one newborn at a time
        pos = np.arange(bpts.shape[0])
        for i in todo.tolist():
            if not found[i]:
                continue
            if near is None:  # the stencil outnumbers the cells: all later rows
                later = slice(i + 1, None)
            else:
                u = cell_list[i]
                later = near[near_at[u] : near_at[u + 1]]
                later = later[later > i]
            rest = bpts[later]
            diff = rest - np.clip(rest, lows[i], highs[i])
            hit = np.einsum("ij,ij->i", diff, diff) <= r2
            idx = pos[later][hit]
            if idx.size:
                cnt[idx] += 1
                raw_new = metric.raw_to_point(rest[hit], bpts[i])
                better = raw_new < best_raw[idx]
                best_raw[idx[better]] = raw_new[better]
                best_id[idx[better]] = m + i
                found[idx] = ~(best_raw[idx] < placed)
        keyed = best_id >= m
        best_id[keyed] = m + np.searchsorted(np.flatnonzero(found), best_id[keyed] - m)
        return found

    def sweep(rows: np.ndarray, radius: float, defer: bool) -> None:
        """One Algorithm-3 pass over ``rows`` in order, blockwise."""
        placed = two_eps_raw if defer else eps_raw  # join or defer below this
        for start in range(0, rows.shape[0], block_size):
            block = rows[start : start + block_size]
            bpts = np.take(pts, block, axis=0)
            b_cells, b_of = np.unique(cell_of[block], return_inverse=True)
            if stencil:  # the block cells' rows of the adjacency
                indptr, nbrs = neighbor_members(
                    np.arange(b_cells.shape[0] + 1), b_cells, adj_ptr, adj_count, adj
                )
            else:  # the stencil outnumbers the cells: join to MC cells only
                c_cells = np.flatnonzero(fill)
                indptr, nbrs = neighbor_cells(cells[b_cells], cells[c_cells])
                nbrs = c_cells[nbrs]
            cnt, best_raw, best_id = gather(bpts, b_of, indptr, nbrs, radius)
            found = newborns(
                bpts, b_cells, b_of, indptr, nbrs, cnt, best_raw, best_id,
                placed, radius * radius,
            )
            born = block[found]  # the rows still on the list founded MCs
            file(born)
            counters.micro_clusters += born.shape[0]
            counters.dist_calcs += int(cnt.sum())
            join = ~found & (best_raw < eps_raw)
            point_mc[block[join]] = best_id[join]
            wait = ~found & ~join
            deferred.extend(block[wait].tolist())
            counters.deferred_points += int(np.count_nonzero(wait))
            assigned.append(block[~wait])

    file(np.arange(n_centers, dtype=np.int64))  # the given centers
    # ---- pass 1: scan, join / defer / create --------------------------
    sweep(np.arange(n_centers, n, dtype=np.int64), search_radius, defer_2eps)
    # ---- pass 2: place deferred points --------------------------------
    if deferred:
        sweep(np.asarray(deferred, dtype=np.int64), eps * cover, False)

    # members in assignment order: pass-1 rows ascending (the founder
    # leads), then the deferred rows in deferral order
    order = np.concatenate(assigned)
    owner = point_mc[order]
    by_mc = np.argsort(owner, kind="stable")
    member_offsets = np.searchsorted(owner[by_mc], np.arange(m + 1))
    return (point_mc[n_centers:], center_rows[n_centers:m] - n_centers,
            member_offsets, order[by_mc] - n_centers)


def build_micro_clusters(
    points: np.ndarray,
    eps: float,
    *,
    max_entries: int = 64,
    counters: Counters | None = None,
    defer_2eps: bool = True,
    metric: Metric = EUCLIDEAN,
    block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
) -> tuple[list[MicroCluster], RTree, np.ndarray]:
    """Algorithm 3 as frozen :class:`MicroCluster` objects plus the
    paper's first-level R-tree (node capacity ``max_entries``) over
    their ``center ± eps`` boxes, STR-packed with payload ``mc_id``.

    A view over :func:`build_micro_cluster_arrays` (same keywords,
    same counters) for inspection and tests; no production path reads
    the objects or the tree.  Returns ``(mcs, first_level_tree,
    point_mc)``.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    counters = counters if counters is not None else Counters()
    point_mc, center_rows, member_offsets, member_flat = build_micro_cluster_arrays(
        pts,
        eps,
        counters=counters,
        defer_2eps=defer_2eps,
        metric=metric,
        block_size=block_size,
    )
    tree = RTree(pts.shape[1], max_entries=max_entries, counters=counters)
    mcs = [MicroCluster(i, r, pts[r]) for i, r in enumerate(center_rows.tolist())]
    MicroCluster.freeze_batch(mcs, member_flat, member_offsets, pts, eps, metric=metric)
    if mcs:
        centers = np.take(pts, center_rows, axis=0)
        str_bulk_load(tree, centers - eps, centers + eps)
    return mcs, tree, point_mc
