"""Step 4 of μDBSCAN — Algorithms 7 & 8 (final connections).

**POST-PROCESSING-CORE** (Alg. 7): a wndq-core point never ran its
query, so merges with *other* core points discovered later may be
missing.  For each wndq-core ``p`` we take the points of its filtered
reachable MCs, keep the core ones, and merge every one strictly within
ε of ``p``.  By Lemma 3 this candidate set contains every possible core
neighbor, and by Lemma 4 all cores are known by now, so after this pass
every core-core ε-edge is merged — maximality for cores.  The pass is
distance computations only (cheaper than a neighborhood query, as the
paper stresses).

Implementation note: like the paper, the pass skips a pair whose two
cores are already in one cluster — but from one vectorized
``uf.roots()`` snapshot taken when the phase starts, not a ``find``
per pair.  That is exact: unions only ever merge components, so two
points with the same start root stay connected for the whole phase and
their pair cannot change the partition, and their ``assigned`` flags
were set by the union that joined them.  Only the pairs that are
computed are charged to ``dist_calcs``.  The cached-μR-tree path
batches the rest: the wndq-cores of one MC share a candidate block,
each start component of the block's rows gets one vectorized distance
matrix against the core candidates outside it, and the induced
bipartite ε-graph is collapsed with a single ``connected_components``
call — the union-find then needs at most one merge per node rather
than one per ε-edge.  Before any block is gathered, one array pass
drops the reachable MCs that cannot add an edge — those with no core
member, or whose core members all share the one start root of the
block's rows (and, in μDBSCAN-D, that hold no unknown candidate) — so
only the rest is read from the member arrays, all in one gather.

**POST-PROCESSING-NOISE** (Alg. 8): a provisional-noise point ``p``
stored its ε-neighborhood; if any of those neighbors is core *now*,
``p`` is a border point of that core's cluster, not noise.  No new
queries are needed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from repro.core.state import MuDBSCANState
from repro.index.grid import concat_ranges


__all__ = ["postprocess_core", "postprocess_noise"]


def _wndq_groups(state: MuDBSCANState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The wndq-core rows grouped by MC: returns ``(mcs, bounds, rows)``,
    MC ``mcs[g]``'s rows being ``rows[bounds[g]:bounds[g + 1]]``.  MCs
    come in order of first appearance in ``wndq_corelist`` and each
    MC's rows in list order: μDBSCAN-D's cross pairs are deduplicated
    keeping first occurrence, and their order decides border claims at
    the global merge."""
    corelist = np.asarray(state.wndq_corelist, dtype=np.int64)
    mcs, first, inverse = np.unique(
        state.murtree.point_mc[corelist], return_index=True, return_inverse=True
    )
    seq = np.argsort(first)
    rank = np.empty_like(seq)
    rank[seq] = np.arange(seq.size)
    group = rank[inverse.reshape(-1)]
    bounds = np.zeros(seq.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=seq.size), out=bounds[1:])
    return mcs[seq], bounds, corelist[np.argsort(group, kind="stable")]


def _useful_blocks(
    state: MuDBSCANState,
    roots: np.ndarray,
    mcs: np.ndarray,
    bounds: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The reach blocks of the wndq MCs ``mcs`` (rows grouped as
    :func:`_wndq_groups` returns them), without the reachable MCs that
    cannot add an edge, gathered in one pass: returns ``(offsets,
    candidates)``, block ``g`` at ``candidates[offsets[g]:offsets[g +
    1]]``, each in the reach block's order.

    A reachable MC ``w`` of MC ``k`` is dropped when it holds no
    unknown candidate and either no core member or — when all of
    ``k``'s rows share one start root — only core members of that same
    root: such a candidate is either never a graph node or one no row
    may be compared with, so the graph, the unions and ``dist_calcs``
    are those of the full block.  Per MC ``w``, one pass over the member
    arrays finds the single start root of its core members (or none,
    or several) and whether it holds an unknown candidate."""
    tree = state.murtree
    member, starts = tree.member_flat, tree.member_offsets[:-1]
    is_core = state.core[member]
    member_root = roots[member]
    low = np.minimum.reduceat(np.where(is_core, member_root, member.size), starts)
    high = np.maximum.reduceat(np.where(is_core, member_root, -1), starts)
    has_core = high >= 0
    mc_root = np.where(low == high, high, -2)  # -2: several roots
    unknown = np.logical_or.reduceat(state.postprocess_unknown_mask(member), starts)
    row_roots = roots[rows]
    shared = np.minimum.reduceat(row_roots, bounds[:-1])
    shared[shared != np.maximum.reduceat(row_roots, bounds[:-1])] = -1  # several

    first = tree.reach_offsets[mcs]
    n_reach = tree.reach_offsets[mcs + 1] - first
    reach = tree.reach_flat[concat_ranges(first, n_reach)]
    owner = np.repeat(np.arange(mcs.size), n_reach)
    keep = unknown[reach] | (has_core[reach] & (mc_root[reach] != shared[owner]))
    size = np.where(keep, tree.member_offsets[reach + 1] - tree.member_offsets[reach], 0)
    ends = np.zeros(reach.size + 1, dtype=np.int64)
    np.cumsum(size, out=ends[1:])
    reach_ends = np.zeros(mcs.size + 1, dtype=np.int64)
    np.cumsum(n_reach, out=reach_ends[1:])
    return ends[reach_ends], np.take(member, tree.member_positions(reach[keep]))


def _postprocess_core_batched(state: MuDBSCANState, roots: np.ndarray) -> None:
    """Cached-mode Algorithm 7: per-MC blocks + component collapse.

    ``roots`` is the union-find snapshot taken when the phase starts.
    The block's wndq-core rows are grouped by start root, and each group
    is compared only with the candidates outside its start component.
    Sequential blocks usually have one group, though a row of a small MC
    promoted by Algorithm 6 step (iii) joins the querying core's
    component.  In μDBSCAN-D a halo row stays a local singleton, and so
    can an owned row whose MC center is a halo point (its Algorithm 4
    union became a cross pair).  The blocks are gathered once, without
    the reachable MCs that cannot add an edge (:func:`_useful_blocks`).

    Two candidate classes per MC block:

    * *proven cores* (``state.core``) — safe to chain through: every
      graph node is a core, so connected components are density
      connected and one union per node reconstructs them;
    * *unknown candidates* (``postprocess_unknown_mask``; only the
      distributed state has any) — halo points whose core status lives
      at a remote rank.  They must not glue local components, so they
      never enter the graph; instead each ε-adjacent (block, candidate)
      relation is forwarded once, from the first adjacent block row
      when that row is owned, as a cross pair judged at the global
      merge under the real flags — the block's pairs in one
      ``state.defer`` call, in candidate order.  An unknown candidate
      is a halo singleton, so no start root hides it from any row.
    """
    eps_raw = state.eps_raw
    metric = state.murtree.metric
    points = state.murtree.points
    counters = state.counters
    mcs, bounds, wndq_rows = _wndq_groups(state)
    offsets, blocks = _useful_blocks(state, roots, mcs, bounds, wndq_rows)

    for g in range(mcs.size):
        candidates = blocks[offsets[g] : offsets[g + 1]]
        if not candidates.size:
            continue
        rows = wndq_rows[bounds[g] : bounds[g + 1]]

        core_cand = candidates[state.core[candidates]]
        if core_cand.size:
            row_roots = roots[rows]
            cand_roots = roots[core_cand]
            ii_parts, jj_parts = [], []
            for root in np.unique(row_roots):
                sel = np.flatnonzero(row_roots == root)
                cols = np.flatnonzero(cand_roots != root)
                if not cols.size:
                    continue
                counters.dist_calcs += int(sel.size) * int(cols.size)
                raw = metric.raw_pairwise(points[rows[sel]], points[core_cand[cols]])
                i, j = np.nonzero(raw < eps_raw)
                if i.size:
                    ii_parts.append(sel[i])
                    jj_parts.append(cols[j])
            if ii_parts:
                ii = np.concatenate(ii_parts)
                jj = np.concatenate(jj_parts)
                k = int(rows.size)
                nodes = np.concatenate([rows, core_cand])
                graph = sparse.coo_matrix(
                    (np.ones(ii.size, dtype=np.int8), (ii, jj + k)),
                    shape=(nodes.size, nodes.size),
                )
                _, comp = connected_components(graph, directed=False)
                order = np.argsort(comp, kind="stable")
                sorted_comp = comp[order]
                starts = np.flatnonzero(
                    np.concatenate([[True], sorted_comp[1:] != sorted_comp[:-1]])
                )
                for s, e in zip(starts, np.append(starts[1:], sorted_comp.size)):
                    if e - s < 2:
                        continue
                    group = nodes[order[s:e]]
                    anchor = int(group[0])
                    state.union_many(anchor, group[group != anchor])

        unknown_cand = candidates[state.postprocess_unknown_mask(candidates)]
        if unknown_cand.size:
            counters.dist_calcs += int(rows.size) * int(unknown_cand.size)
            raw = metric.raw_pairwise(points[rows], points[unknown_cand])
            hit = raw < eps_raw
            j = np.flatnonzero(hit.any(axis=0))
            first = rows[np.argmax(hit[:, j], axis=0)]  # first adjacent block row
            # a halo row's relation is the halo owner's to report
            owned = state.owned[first]
            state.defer(first[owned], unknown_cand[j[owned]])


def postprocess_core(state: MuDBSCANState) -> None:
    """Run Algorithm 7 over the wndq-core list.

    Pairs whose endpoints share a union-find root when the phase starts
    are skipped (see the module docstring), in every ``aux_index`` mode.
    """
    if not state.wndq_corelist:
        return
    roots = state.uf.roots()
    if state.murtree.aux_index == "cached":
        _postprocess_core_batched(state, roots)
        return
    eps_raw = state.eps_raw
    metric = state.murtree.metric
    points = state.murtree.points
    counters = state.counters
    for row in state.wndq_corelist:
        candidates = state.murtree.candidates_for_postprocessing(row)
        if candidates.size == 0:
            continue
        keep = state.postprocess_candidate_mask(candidates)
        keep &= roots[candidates] != roots[row]
        core_candidates = candidates[keep]
        if core_candidates.size == 0:
            continue
        counters.dist_calcs += int(core_candidates.size)
        raw = metric.raw_to_point(points[core_candidates], points[row])
        for q in core_candidates[raw < eps_raw]:
            state.union(row, int(q))


def postprocess_noise(state: MuDBSCANState) -> None:
    """Run Algorithm 8 over the noise list (rescue mislabelled borders).

    The stored neighborhoods are re-checked against the *final* core
    flags: every pending row's stored list is concatenated and the
    core-flag gather runs in one vectorized pass; only rows that
    actually own a core neighbor pay Python-level work.  A row that is
    assigned or core by now was already rescued (a core point
    processed after it found it in its own query and merged it), and a
    second merge could connect two *different* clusters through a
    non-core point, so it is skipped.  The rescues are independent of
    each other — a rescue union touches the rescued row and an (always
    core, hence never noise-listed) neighbor, so no rescue can change
    another pending row's skip condition — which makes the upfront skip
    mask exactly the mask a row-by-row loop evaluates.
    """
    if not state.noise_nbrs:
        return
    # insertion order preserved: unions happen in the same order as a
    # row-by-row loop, keeping border-claim determinism bit-for-bit
    rows = np.fromiter(state.noise_nbrs.keys(), dtype=np.int64, count=len(state.noise_nbrs))
    live = rows[~state.assigned[rows] & ~state.core[rows]]
    if live.size == 0:
        return
    lists = [state.noise_nbrs[int(r)] for r in live]
    lens = np.fromiter((l.shape[0] for l in lists), dtype=np.int64, count=live.size)
    if np.any(lens == 0):  # empty neighborhoods can never be rescued
        keep = lens > 0
        live = live[keep]
        lists = [l for l in lists if l.shape[0]]
        lens = lens[keep]
    if live.size == 0:
        return
    flat = np.concatenate(lists)
    is_core = state.core[flat]
    offsets = np.zeros(live.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    has_core = np.add.reduceat(is_core, offsets[:-1]) > 0
    for k in np.flatnonzero(has_core):
        seg = is_core[offsets[k] : offsets[k + 1]]
        first = int(flat[offsets[k] + int(np.argmax(seg))])
        state.union(first, int(live[k]))
