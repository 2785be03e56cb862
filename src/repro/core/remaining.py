"""Step 3 of μDBSCAN — Algorithm 6 (PROCESS-REM-POINTS).

Every point *not* tagged wndq-core gets its exact ε-neighborhood query
(restricted to filtered reachable MCs, §IV-B2).  Then:

* ``|N| < MinPts`` — the point is border if some already-known core is
  in its neighborhood (merge with the first one), otherwise it goes to
  the ``noiseList`` *with its neighborhood stored*, because a neighbor
  may still turn core later (Algorithm 8 re-checks).
* ``|N| >= MinPts`` — the point is core; merge with every core
  neighbor, and with every non-core neighbor that is not yet assigned
  (an already-assigned border stays with its first cluster — classical
  DBSCAN's order semantics).
* dynamic wndq-core (step iii): if additionally
  ``|N_{eps/2}| >= MinPts``, every point of the inner half-ball is core
  by the Lemma-1 argument with this point as the pivot — mark the
  non-core ones wndq-core and merge them, saving their upcoming
  queries.

The dynamic rule can never contradict an earlier verdict: a point ``q``
already found non-core has ``|N_eps(q)| < MinPts``, while
``q ∈ N_{eps/2}(p)`` implies ``N_eps(q) ⊇ N_{eps/2}(p)``, so the rule's
precondition cannot hold for it.

Batched execution (``cached`` mode)
-----------------------------------
Every member of a micro-cluster shares the MC's reach block (Lemma 3),
so issuing one Python-level :meth:`MuRTree.query_ball` per point
re-gathers the same candidates ``|MC|`` times.  The batched path splits
*computing* neighborhoods from *consuming* verdicts, and computes them
with one of two kernels chosen per MC from the size of its reach block
(``MuRTree.block_offsets``).  Both gather each block they scan from the
member arrays through the reach CSR, in the block's order:

* **dense sub-blocks** — rows of a block of at least
  ``DENSE_MIN_CANDIDATES`` candidates are answered per MC by
  :meth:`MuRTree.query_ball_block`, a few of the MC's still-live rows
  at a time (lazy sub-blocks growing geometrically — see
  ``_process_batched``), one distance matrix each, over the block's
  coordinates gathered for that call (no block is kept between a dense
  MC's sub-blocks);
* **flat waves** — any other row that needs an answer starts a wave
  over the next still-live small-block rows in global order, up to
  ``_WAVE_PAIRS`` (row, candidate) pairs, gathered and scored in one
  pass (``_flat_wave``).  Small blocks are most MCs of sparse data,
  where one call per sub-block made the fixed cost of a call the whole
  phase.

The pending rows are walked in the **original global row order**; when
a row's answer is not yet available its kernel computes it (with the
answers of the rows after it), then exactly the per-point verdict logic
above runs on the precomputed neighbor list.  Neighbor lists keep the
reach block's order, which is the order :meth:`MuRTree.query_ball`
returns, and merge lists go through ``MuDBSCANState.union_many``.

Because the consumption order and every flag update are identical to
the per-point path, the batched path is *state-for-state* equivalent:
same cores, same partition and labels, same ``noiseList``, same union
sequence wherever the state needs one (μDBSCAN-D's cross pairs).  A
flat wave scores each pair with the direct form ``query_ball`` uses, so
its verdicts are bit-identical to the per-point path's.  Two details
make the counters match too:

* a row that the dynamic rule promotes mid-run is still skipped at its
  turn (its precomputed answer is simply discarded), so
  ``queries_run`` counts exactly the queries the per-point path runs;
* neither kernel charges work itself: each consumed row adds its reach
  block's size to ``dist_calcs`` — discarded answers cost nothing,
  exactly like a query that was never issued.

The verdicts themselves are order-independent (core status is a
property of the geometry), which is why precomputing them is sound;
only the *skip* decision is dynamic, and it is re-checked at
consumption time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.state import MuDBSCANState
from repro.microcluster.murtree import (
    DEFAULT_BLOCK_SIZE,
    DENSE_MIN_CANDIDATES,
    BlockQueryResult,
    MuRTree,
)
from repro.observability.tracing import current_tracer

__all__ = ["process_remaining_points"]

#: first lazy sub-block per MC, and the geometric growth factor for the
#: following ones — small first batches bound the work discarded when a
#: core row dynamically promotes the rest of its MC (see
#: ``_process_batched``)
_FIRST_SUB_BLOCK = 8
_SUB_BLOCK_GROWTH = 4

#: (row, candidate) pairs per flat wave.  Budgets of 2^12 to 2^18 took
#: equal time on both inputs (within the runs' spread), while the phase's
#: tracemalloc peak on ``halos`` grew 5.4 / 6.1 / 9.3 / 17.8 MiB for
#: 2^12 / 2^14 / 2^16 / 2^18.
_WAVE_PAIRS = 1 << 14

#: detailed ``mc_batch`` spans emitted per clustering pass when a tracer
#: is active; batches beyond the cap roll into one ``mc_batch_summary``
#: span (count + rows + seconds) — a 20k-point run issues thousands of
#: sub-blocks, and one span object per block is what pushed enabled-mode
#: tracing overhead above the perf-smoke gate
_SPAN_CAP = 32

#: consumed-row granularity of the optional ``progress_cb`` — coarse
#: enough that a heartbeat can ride it without measurable cost
_PROGRESS_EVERY = 256


def process_remaining_points(
    state: MuDBSCANState,
    dynamic_wndq: bool = True,
    process_mask: np.ndarray | None = None,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress_cb=None,
) -> None:
    """Run Algorithm 6.

    ``dynamic_wndq=False`` disables step (iii) (ablation 3 in
    DESIGN.md §5) — exactness is unaffected, only the query count grows.

    ``process_mask`` limits the pass to the masked rows — μDBSCAN-D
    queries only *owned* points (halo points exist to complete owned
    neighborhoods; their own verdicts belong to their owner rank).

    The ``cached`` aux index, whose reach block is shared MC-wide, runs
    the batched neighborhood engine (see module docstring).  The
    ``flat`` and ``rtree`` modes filter reachable MCs per point, so
    they run the per-point loop, as :mod:`repro.validation.reference`
    does in every mode.  ``block_size`` bounds the transient distance
    matrix of a dense sub-block to ``block_size x |reach block|``
    doubles; flat waves are bounded by ``_WAVE_PAIRS`` instead.

    ``progress_cb(consumed, eligible)``, when given, is invoked every
    ``_PROGRESS_EVERY`` consumed rows (and once at the end) — the hook
    distributed ranks hang their monitoring heartbeats on.
    """
    if state.murtree.aux_index == "cached":
        _process_batched(state, dynamic_wndq, process_mask, block_size, progress_cb)
    else:
        _process_per_point(state, dynamic_wndq, process_mask, progress_cb)


def _process_per_point(
    state: MuDBSCANState,
    dynamic_wndq: bool,
    process_mask: np.ndarray | None,
    progress_cb=None,
) -> None:
    """One query per point, as in the paper's Algorithm 6."""
    params = state.params
    min_pts = params.min_pts
    counters = state.counters
    consumed = 0
    total = state.n if process_mask is None else int(np.count_nonzero(process_mask))
    for row in range(state.n):
        if process_mask is not None and not process_mask[row]:
            continue
        if state.wndq[row]:
            continue  # the saved query — the algorithm's headline win
        nbrs, raw = state.murtree.query_ball(row)
        state.queried[row] = True
        counters.queries_run += 1
        consumed += 1
        if progress_cb is not None and consumed % _PROGRESS_EVERY == 0:
            progress_cb(consumed, total)

        if nbrs.shape[0] < min_pts:
            if not state.assigned[row]:
                core_nbrs = nbrs[state.core[nbrs]]
                if core_nbrs.size:
                    state.union(int(core_nbrs[0]), row)  # border of 1st core
                else:
                    state.noise_nbrs[row] = nbrs.copy()  # provisional noise
            # an already-assigned border keeps its first cluster; merging
            # it with a second core would connect two clusters through a
            # non-core point
            continue

        state.core[row] = True
        if dynamic_wndq:
            inner = nbrs[raw < state.half_eps_raw]
            if inner.shape[0] >= min_pts:
                for q in inner:
                    qi = int(q)
                    if not state.core[qi]:
                        state.mark_wndq_core(qi)
                        state.union(row, qi)
        for q in nbrs:
            qi = int(q)
            if qi == row:
                continue
            if state.core[qi] or not state.assigned[qi]:
                state.union(row, qi)
        state.assigned[row] = True
    if progress_cb is not None:
        progress_cb(consumed, total)


class _BatchSpans:
    """``mc_batch`` spans for the first ``_SPAN_CAP`` batches of a pass
    and one ``mc_batch_summary`` for the rest; with no tracer active,
    :meth:`run` is a plain call."""

    def __init__(self) -> None:
        self.tracer = current_tracer()
        self.left = _SPAN_CAP if self.tracer is not None else 0
        self.batches = 0
        self.rows = 0
        self.seconds = 0.0

    def run(self, answer, rows: int, **attrs) -> BlockQueryResult:
        if self.tracer is None:
            return answer()
        if self.left > 0:
            self.left -= 1
            with self.tracer.span("mc_batch", rows=rows, **attrs):
                return answer()
        t0 = time.perf_counter()
        out = answer()
        self.seconds += time.perf_counter() - t0
        self.batches += 1
        self.rows += rows
        return out

    def close(self) -> None:
        if self.batches:
            # the capped remainder, as one span: counters say how many
            # batches it stands for and how long their queries took
            with self.tracer.span(
                "mc_batch_summary", batches=self.batches, rows=self.rows
            ) as summary:
                summary.set_attr("query_seconds", self.seconds)


def _flat_wave(
    murtree: MuRTree,
    rows: np.ndarray,
    costs: np.ndarray,
    eps_raw: float,
    h_raw: float,
) -> BlockQueryResult:
    """Answer the queries of ``rows`` — members of small reach blocks,
    ``costs[i]`` candidates each — in one pass over all their
    (row, candidate) pairs.

    Each pair is scored with the direct per-pair form
    :meth:`MuRTree.query_ball` applies to a whole block, so every
    verdict is bit-identical to the per-point path's whatever the
    wave's shape; the rows' blocks are gathered in one pass
    (:meth:`MuRTree.block_positions`), and counts and neighbour lists
    come from segment reductions in the blocks' order."""
    pair_end = np.cumsum(costs)
    _, at = murtree.block_positions(murtree.point_mc[rows])
    points = murtree.points
    diff = np.take(murtree.member_points, at, axis=0)
    diff -= np.repeat(np.take(points, rows, axis=0), costs, axis=0)
    raw = murtree.metric.raw_to_point(diff, np.zeros(points.shape[1]))
    hit = raw < eps_raw
    nbr = np.take(murtree.member_flat, at[hit])
    nbr_raw = raw[hit]
    hits_before = np.zeros(hit.size + 1, dtype=np.int64)
    np.cumsum(hit, out=hits_before[1:])
    offsets = hits_before[np.r_[0, pair_end]]
    half_before = np.zeros(nbr.size + 1, dtype=np.int64)
    np.cumsum(nbr_raw < h_raw, out=half_before[1:])
    return BlockQueryResult(
        rows,
        nbr,
        nbr_raw,
        offsets,
        np.diff(offsets),
        half_before[offsets[1:]] - half_before[offsets[:-1]],
        h_raw,
        per_row_cost=0,  # charged per consumed row by the caller
    )


def _process_batched(
    state: MuDBSCANState,
    dynamic_wndq: bool,
    process_mask: np.ndarray | None,
    block_size: int,
    progress_cb=None,
) -> None:
    """Batched Algorithm 6: answers computed ahead by the kernel of each
    row's reach block, verdicts consumed in global row order."""
    murtree = state.murtree
    min_pts = state.params.min_pts
    counters = state.counters

    eligible = ~state.wndq
    if process_mask is not None:
        eligible &= process_mask
    pending = np.flatnonzero(eligible)
    if pending.size == 0:
        return
    point_mc = murtree.point_mc
    # distance evaluations of each pending query: its reach block's size
    cost = np.diff(murtree.block_offsets)[point_mc[pending]]
    dense = cost >= DENSE_MIN_CANDIDATES
    wave_rows = pending[~dense]
    wave_costs = cost[~dense]

    # ---- rows of large reach blocks, grouped by MC ---------------------
    dense_rows = pending[dense]
    order = np.argsort(point_mc[dense_rows], kind="stable")
    ids, starts = np.unique(point_mc[dense_rows[order]], return_index=True)
    groups: dict[int, np.ndarray] = dict(
        zip(ids.tolist(), np.split(dense_rows[order], starts[1:]))
    )

    # ---- per-row verdicts, original global row order ------------------
    # Answers are computed lazily, when a not-yet-answered row comes up.
    # A row of a large reach block starts its MC's next dense sub-block,
    # over the MC's next still-live (un-promoted) members; the sub-block
    # size starts small and grows geometrically: in dense MCs the first
    # consumed core row typically promotes the rest of the MC (its inner
    # half-ball), so an eagerly-precomputed full-MC block would mostly
    # be discarded — a small first batch bounds that waste, while
    # promotion-free MCs quickly reach full-width blocks.  Any other row
    # starts a flat wave over the next still-live small-block rows in
    # global order, up to _WAVE_PAIRS (row, candidate) pairs.  Either
    # way, a row promoted between its answer and its turn is skipped
    # like the per-point path skips it — the wndq re-check decides.
    wndq = state.wndq
    core = state.core
    assigned = state.assigned
    metric = murtree.metric
    eps_raw = metric.threshold(murtree.eps)
    half_radius = state.params.eps * 0.5
    h_raw = metric.threshold(half_radius)
    spans = _BatchSpans()
    consumed = 0
    local_ix = np.full(state.n, -1, dtype=np.int64)
    wave: BlockQueryResult | None = None
    latest: dict[int, BlockQueryResult] = {}  # each MC's newest sub-block
    pos: dict[int, int] = {}
    sub_size: dict[int, int] = {}
    for row, row_cost in zip(pending.tolist(), cost.tolist()):
        if wndq[row]:
            continue  # promoted mid-run by the dynamic rule: query saved
        in_dense = row_cost >= DENSE_MIN_CANDIDATES
        mc_id = int(point_mc[row])
        if local_ix[row] < 0:
            if in_dense:
                seg = groups[mc_id][pos.get(mc_id, 0) :]
                k = sub_size.get(mc_id, _FIRST_SUB_BLOCK)
                sub = seg[~wndq[seg]][:k]  # sub[0] == row: earlier live rows
                # of the MC were answered by previous sub-blocks
                pos[mc_id] = pos.get(mc_id, 0) + int(np.searchsorted(seg, sub[-1])) + 1
                sub_size[mc_id] = k * _SUB_BLOCK_GROWTH
                latest[mc_id] = spans.run(
                    lambda: murtree.query_ball_block(
                        mc_id,
                        sub,
                        half_radius=half_radius,
                        block_size=block_size,
                        count_work=False,
                        validate=False,  # rows were grouped by point_mc
                    ),
                    rows=int(sub.size),
                    mc=mc_id,
                )
            else:
                # every earlier small-block row is consumed or promoted,
                # so the wave starts here; each row costs >= 1 pair
                at = int(np.searchsorted(wave_rows, row))
                window = wave_rows[at : at + _WAVE_PAIRS]
                live = np.flatnonzero(~wndq[window])
                spent = np.cumsum(wave_costs[at + live])
                k = max(1, int(np.searchsorted(spent, _WAVE_PAIRS, side="right")))
                sub = window[live[:k]]
                sub_costs = wave_costs[at + live[:k]]
                wave = spans.run(
                    lambda: _flat_wave(murtree, sub, sub_costs, eps_raw, h_raw),
                    rows=k,
                    pairs=int(spent[k - 1]),
                )
            local_ix[sub] = np.arange(sub.size)
        block = latest[mc_id] if in_dense else wave
        i = int(local_ix[row])
        nbrs = block.nbrs(i)
        state.queried[row] = True
        counters.queries_run += 1
        counters.dist_calcs += row_cost
        consumed += 1
        if progress_cb is not None and consumed % _PROGRESS_EVERY == 0:
            progress_cb(consumed, int(pending.size))

        if block.n_eps[i] < min_pts:
            if not assigned[row]:
                core_nbrs = nbrs[core[nbrs]]
                if core_nbrs.size:
                    state.union(int(core_nbrs[0]), row)  # border of 1st core
                else:
                    state.noise_nbrs[row] = nbrs.copy()  # provisional noise
            continue

        core[row] = True
        if dynamic_wndq and block.n_half[i] >= min_pts:
            inner = block.inner(i)
            # marking q only flips q's own core flag, so the pre-filtered
            # set equals what the per-point loop's running check visits;
            # none of it is core, so none is wndq-core yet either
            promote = inner[~core[inner]]
            if promote.size:
                wndq[promote] = True
                core[promote] = True
                state.wndq_corelist.extend(promote.tolist())
                state.union_many(row, promote)
        merge = nbrs[(core[nbrs] | ~assigned[nbrs]) & (nbrs != row)]
        state.union_many(row, merge)
        assigned[row] = True
    spans.close()
    if progress_cb is not None:
        progress_cb(consumed, int(pending.size))
