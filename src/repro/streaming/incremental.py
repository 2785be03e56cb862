"""True incremental μDBSCAN: insert / delete / expiry with local repair.

The batch pipeline runs Algorithms 3–8 once over a fixed dataset.  This
module maintains the *same* clustering under a live update stream
without re-running the pipeline, on the fit's own kernels:

* **micro-cluster structure** — every batch is placed by the fit's grid
  builder (:func:`~repro.microcluster.builder.build_micro_cluster_arrays`)
  with the centers of the live MCs near it as input: a point joins the
  nearest center strictly within ε (lowest MC id on exact ties), waits
  for the second pass when one lies within 2ε, and founds an MC
  otherwise.  MC centers never move, so the fixed ``center ± eps``
  boxes and the 3ε reach lists stay valid (Lemma 3 is purely
  geometric); the MCs a batch founds are joined against the live
  centers near them by
  :func:`~repro.microcluster.reachability.compute_reachable` and
  spliced into the reach CSR, and compaction drops dissolved MCs from
  it, so every list equals a join over all live centers.
  Deletions remove the member but keep the center as a *virtual*
  anchor — Theorem 1 holds for any valid MC partition, and a partition
  anchored on a departed point is still valid (members strictly within
  ε of the anchor, anchors pairwise ≥ ε apart).  The state is flat
  arrays — each MC's center row, alive flag and inner-circle count,
  and the reach CSR; an MC's members are the live rows whose
  ``point_mc`` names it, and it is *degenerate* when its center row is
  dead.
* **core status** — the exact live neighbor count ``|N_ε(p)|`` of every
  live point, updated from the ε-neighborhoods of the inserted/deleted
  points only (symmetry: the points whose count changes are exactly the
  ε-neighbors of the update batch).  Neighborhoods are (row, member)
  pairs expanded through the reach CSR and scored in budgeted passes.
* **cluster components** — a union-find over *label ids*, not rows.
  Insertions only ever merge components (a promotion adds core-core
  edges), handled by unioning the promoted core with its core
  neighbors.  Deletions and expiry can *split* a component; the engine
  then repairs **only the touched components**: every still-core member
  of a component that lost a core gets a fresh label and is re-linked
  against its core neighbors (a component is closed under core
  adjacency, so the repair region never leaks).  No global re-cluster
  happens on any path — the per-batch query counters prove it.  Once
  the label ids outnumber twice the live cores, the live cores'
  canonical labels are renumbered densely into a fresh union-find, so
  its size follows the window, not the stream's history.
* **border points** — resolved lazily and canonically (nearest core
  strictly within ε, ties to the lowest row id) with a per-row cache
  that is invalidated exactly when the row's neighborhood or a nearby
  core's status changed.
* **compaction** — degenerate MCs are dissolved and their live members
  placed again through the builder against the surviving centers.  By
  Theorem 1 this never changes labels, which is exactly the
  compaction-idempotence property the tests check.

See docs/STREAMING.md for the invariants and the windowed-exactness
argument; :mod:`repro.validation.exactness` provides the checker that
proves label parity against a batch refit of the live window.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Iterable

import numpy as np

from repro._compat import deprecated_alias, deprecated_method
from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.geometry.distance import require_finite
from repro.geometry.metrics import Metric, get_metric
from repro.index.grid import cell_width, concat_ranges, pair_passes, run_minima
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.builder import (
    DEFAULT_BUILDER_BLOCK_SIZE,
    build_micro_cluster_arrays,
)
from repro.microcluster.microcluster import MCKind
from repro.microcluster.reachability import compute_reachable
from repro.observability.adapters import publish_run
from repro.observability.registry import get_registry
from repro.observability.tracing import maybe_span
from repro.unionfind import UnionFind, dense_first_appearance

__all__ = ["StreamingMuDBSCAN", "IncrementalMuDBSCAN"]

ALGORITHM = "streaming_mu_dbscan"

#: border-cache sentinels (values < 0; >= 0 means "home core row")
_UNKNOWN = -2  # never resolved / invalidated
_NO_HOME = -1  # resolved: no core strictly within eps (noise)


def _grown(arr: np.ndarray, need: int, fill) -> np.ndarray:
    """Return ``arr`` with capacity >= ``need`` (amortised doubling)."""
    if arr.shape[0] >= need:
        return arr
    cap = max(need, 2 * arr.shape[0], 64)
    out = np.full(cap, fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class StreamingMuDBSCAN:
    """Exact DBSCAN over a live window, maintained incrementally.

    sklearn-style estimator surface: :meth:`partial_fit` inserts a
    batch, :meth:`delete` removes points by id, :attr:`labels_` is the
    current clustering of the live window.  With ``window=w`` the
    stream keeps at most ``w`` live points, expiring the oldest on
    overflow (sliding window).

    Parameters
    ----------
    eps, min_pts:
        Density parameters, fixed for the stream's lifetime (ε defines
        the micro-cluster geometry).  ``min_samples`` / ``minpts`` are
        accepted as deprecated aliases of ``min_pts``.
    dim:
        Point dimensionality; may be omitted (``None``) and inferred
        from the first batch.
    metric:
        ``"euclidean"`` / ``"manhattan"`` / ``"chebyshev"`` or a
        :class:`~repro.geometry.metrics.Metric` instance.
    window:
        Maximum live points (``None`` = unbounded; no expiry).
    builder_block_size:
        Rows per vectorized block of the grid builder, which places
        every batch: the first, every later insert and every
        compaction's re-placed rows.  Results do not depend on it.
    compact_every:
        Compact after this many update calls (``None`` = only on the
        degeneracy trigger below, or manually).
    compact_dirty_fraction:
        Auto-compact when more than this fraction of the live MCs is
        degenerate (dead center).

    The per-update queries and distance work are proportional to the
    update's neighborhood (plus the repaired components on delete),
    never to the window — ``last_update_stats`` exposes the per-batch
    counters the tests gate on.  The window adds a few vectorized
    passes per update: picking the live centers near the batch, and
    splicing the member cache and the reach CSR.
    """

    @deprecated_alias(minpts="min_pts", min_samples="min_pts")
    def __init__(
        self,
        eps: float,
        min_pts: int,
        dim: int | None = None,
        *,
        metric: str | Metric = "euclidean",
        window: int | None = None,
        builder_block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
        compact_every: int | None = None,
        compact_dirty_fraction: float = 0.25,
    ) -> None:
        self.params = DBSCANParams(eps=eps, min_pts=min_pts)
        if dim is not None and dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if builder_block_size < 1:
            raise ValueError(f"builder_block_size must be >= 1, got {builder_block_size}")
        self.dim = dim
        self.metric = get_metric(metric)
        self.window = window
        self.builder_block_size = int(builder_block_size)
        self.compact_every = compact_every
        self.compact_dirty_fraction = float(compact_dirty_fraction)
        self.counters = Counters()
        self.timers = PhaseTimer()

        # point buffer (rows are permanent ids; deleted rows tombstoned)
        self._chunks: list[np.ndarray] = []
        self._points: np.ndarray | None = None
        self._n = 0  # rows ever inserted
        self._n_live = 0
        self._expire_cursor = 0  # smallest row id that may still be live

        # per-row state (capacity arrays; valid on [:self._n])
        self._alive = np.zeros(0, dtype=bool)
        self._ncount = np.zeros(0, dtype=np.int64)  # |N_eps| over live, self incl.
        self._core = np.zeros(0, dtype=bool)
        self._labels = np.full(0, -1, dtype=np.int64)  # raw label ids (cores)
        self._border = np.full(0, _UNKNOWN, dtype=np.int64)  # cache, see sentinels
        self._point_mc = np.full(0, -1, dtype=np.int64)

        # micro-cluster state, indexed by MC id (ids are never reused)
        self._center_rows = np.zeros(0, dtype=np.int64)
        self._mc_alive = np.zeros(0, dtype=bool)
        self._ic_count = np.zeros(0, dtype=np.int64)  # live members < eps/2 away
        # reach lists as a CSR over MC ids: the live MCs whose centers
        # are at most 3eps apart (symmetric, self included); empty for
        # dissolved MCs
        self._reach_offsets = np.zeros(1, dtype=np.int64)
        self._reach_flat = np.zeros(0, dtype=np.int64)
        self._member_cache: tuple[np.ndarray, ...] | None = None  # _live_members

        # label union-find (labels are only ever created and merged;
        # splits mint fresh labels, renumbered by _bound_label_ids)
        self._label_uf = UnionFind(0, counters=self.counters)

        # lifecycle / telemetry
        self.compactions_total = 0
        self.n_inserted_total = 0
        self.n_deleted_total = 0
        self.n_expired_total = 0
        self._updates_since_compact = 0
        self.last_update_stats: dict[str, Any] = {}
        self._published_counts: dict[str, float] = {}
        self._published_phases: dict[str, float] = {}

    # ------------------------------------------------------------------
    # views

    def __len__(self) -> int:
        return self._n_live

    @property
    def n_live(self) -> int:
        return self._n_live

    @property
    def n_seen(self) -> int:
        """Rows ever inserted (buffer length, tombstones included)."""
        return self._n

    @property
    def n_micro_clusters(self) -> int:
        return int(np.count_nonzero(self._mc_alive))

    @property
    def points(self) -> np.ndarray:
        """The full row buffer (live and tombstoned rows)."""
        if self._chunks:
            parts = ([self._points] if self._points is not None else []) + self._chunks
            self._points = np.vstack(parts)
            self._chunks = []
        if self._points is None:
            return np.empty((0, self.dim or 1))
        return self._points

    def live_rows(self) -> np.ndarray:
        """Global row ids of the live window, ascending."""
        return np.flatnonzero(self._alive[: self._n])

    @property
    def ids_(self) -> np.ndarray:
        """Alias of :meth:`live_rows` (the ids :attr:`labels_` aligns to)."""
        return self.live_rows()

    @property
    def window_points(self) -> np.ndarray:
        """Coordinates of the live window, in ``ids_`` order."""
        return self.points[self.live_rows()]

    @property
    def core_sample_mask_(self) -> np.ndarray:
        """Core flags of the live window, in ``ids_`` order."""
        return self._core[self.live_rows()].copy()

    def mc_kind_counts(self) -> dict[str, int]:
        """Live DMC / CMC / SMC counts, from the member and inner-circle
        counts."""
        size, min_pts = np.diff(self._live_members()[0]), self.params.min_pts
        live = self._mc_alive & (size > 0)
        dense = live & (self._ic_count >= min_pts)
        core = live & ~dense & (size >= min_pts) & self._alive[self._center_rows]
        n_dense, n_core = int(np.count_nonzero(dense)), int(np.count_nonzero(core))
        return {
            MCKind.DMC.name: n_dense,
            MCKind.CMC.name: n_core,
            MCKind.SMC.name: int(np.count_nonzero(live)) - n_dense - n_core,
        }

    # ------------------------------------------------------------------
    # micro-cluster state

    def _live_members(self) -> tuple[np.ndarray, ...]:
        """Live member rows of every MC as a CSR over MC ids, each MC's
        rows ascending, and their coordinates in that order:
        ``(offsets, rows, coords)``; cached, kept up to date on insert
        and delete, and rebuilt after a compaction moves rows."""
        empty = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), self.points[:0]
        if self.dim is None:  # no batch yet, so no coordinate width to cache
            return empty
        if self._member_cache is None:  # file every live row into an empty cache
            self._member_cache = empty
            self._add_members(self.live_rows())
        return self._member_cache

    def _add_members(self, rows: np.ndarray) -> None:
        """File the placed ``rows``, newer than every member, at the end
        of their MCs' runs in the member cache."""
        if self._member_cache is None:
            return
        offsets, members, coords = self._member_cache
        n_mcs = self._center_rows.size  # cover the new MCs too
        offsets = np.r_[offsets, np.full(n_mcs + 1 - offsets.size, offsets[-1])]
        mc = self._point_mc[rows]
        by = np.argsort(mc, kind="stable")
        at, rows = offsets[mc[by] + 1], rows[by]
        offsets[1:] += np.cumsum(np.bincount(mc, minlength=n_mcs))
        coords = np.insert(coords, at, np.take(self.points, rows, axis=0), axis=0)
        self._member_cache = (offsets, np.insert(members, at, rows), coords)

    def _drop_members(self, rows: np.ndarray) -> None:
        """Remove the rows just deleted from the member cache."""
        if self._member_cache is None:
            return
        offsets, members, coords = self._member_cache
        lost = np.bincount(self._point_mc[rows], minlength=offsets.size - 1)
        offsets = offsets - np.concatenate([[0], np.cumsum(lost)])
        keep = np.flatnonzero(self._alive[members])
        self._member_cache = (offsets, members[keep], np.take(coords, keep, axis=0))

    def _near_centers(self, pts: np.ndarray) -> np.ndarray:
        """Ascending ids of the live MCs whose centers lie within
        ``(3 cover + 1) eps`` per axis of the bounding box of ``pts``:
        every MC a point of ``pts`` can join, defer against (the
        builder's leaf test) or reach (3ε) is among them."""
        eps = self.params.eps
        reach = (3.0 * self.metric.l2_cover_factor(pts.shape[1]) + 1.0) * eps
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        # widened as hash_cells widens its cells, against rounding
        reach = cell_width(reach, max(np.abs(lo).max(), np.abs(hi).max()) + reach)
        live = np.flatnonzero(self._mc_alive)
        near = np.ones(live.size, dtype=bool)
        centers = np.take(self.points, self._center_rows[live], axis=0)
        # a column at a time: far cheaper than one broadcast over (k, d)
        for col, a, b in zip(centers.T, lo - reach, hi + reach):
            near &= (col >= a) & (col <= b)
        return live[near]

    def _degenerate_mask(self) -> np.ndarray:
        """Mask of the live MCs whose center row is dead."""
        return self._mc_alive & ~self._alive[self._center_rows]

    def _in_inner_circle(self, rows: np.ndarray) -> np.ndarray:
        """Whether each of ``rows`` lies strictly within ε/2 of its MC's
        center, by the freezer's test (``member - center``)."""
        pts = self.points
        diff = pts[rows] - pts[self._center_rows[self._point_mc[rows]]]
        raw = self.metric.raw_to_point(diff, np.zeros(diff.shape[1]))
        return raw < self.metric.threshold(self.params.eps * 0.5)

    def _place(self, rows: np.ndarray) -> None:
        """Algorithm 3 for ``rows``: the grid builder with the nearby live
        MCs' centers as input; the MCs it founds join the reach CSR."""
        if not rows.size:
            return
        pts = self.points
        batch = np.take(pts, rows, axis=0)
        live_mcs = self._near_centers(batch)
        point_mc, founders = build_micro_cluster_arrays(
            batch,
            self.params.eps,
            counters=self.counters,
            metric=self.metric,
            block_size=self.builder_block_size,
            centers=pts[self._center_rows[live_mcs]],
        )[:2]
        first = self._center_rows.size  # the new MCs' ids follow every old one
        ids = np.concatenate([live_mcs, np.arange(first, first + founders.size)])
        self._point_mc[rows] = ids[point_mc]
        self._center_rows = np.concatenate([self._center_rows, rows[founders]])
        self._mc_alive = np.concatenate([self._mc_alive, np.ones(founders.size, bool)])
        self._ic_count = np.concatenate([self._ic_count, np.zeros_like(founders)])
        np.add.at(self._ic_count, self._point_mc[rows[self._in_inner_circle(rows)]], 1)
        if founders.size:
            self._join_reach(first)

    def _join_reach(self, first: int) -> None:
        """Splice the reach lists of the new MCs ``first, first + 1, ...``
        into the CSR: the grid join of those MCs against the live
        centers near them gives their lists, and by symmetry each old
        MC on a list gains the new one at its end, so every list stays
        ascending and equal to a join over all live centers."""
        n_new = self._center_rows.size - first
        # the new MCs are live, near themselves and the highest ids: last
        live_mcs = self._near_centers(self.points[self._center_rows[first:]])
        centers = self.points[self._center_rows[live_mcs]]
        new = np.arange(live_mcs.size - n_new, live_mcs.size)
        offsets, flat = compute_reachable(
            centers, self.params.eps, self.counters, self.metric, rows=new
        )
        flat = live_mcs[flat]
        src = np.repeat(np.arange(first, first + n_new), np.diff(offsets))
        old = flat < first
        by = np.lexsort((src[old], flat[old]))  # by old MC, then new MC
        gained = np.bincount(flat[old], minlength=first)
        at = self._reach_offsets[flat[old][by] + 1]  # the ends of their lists
        self._reach_flat = np.concatenate(
            [np.insert(self._reach_flat, at, src[old][by]), flat]
        )
        self._reach_offsets[1:] += np.cumsum(gained)
        self._reach_offsets = np.concatenate(
            [self._reach_offsets, self._reach_flat.size - offsets[-1] + offsets[1:]]
        )

    def _drop_reach(self) -> None:
        """Remove the dissolved MCs' lists, and every entry naming one,
        from the reach CSR."""
        n_mcs = self._reach_offsets.size - 1
        src = np.repeat(np.arange(n_mcs), np.diff(self._reach_offsets))
        keep = self._mc_alive[src] & self._mc_alive[self._reach_flat]
        self._reach_flat = self._reach_flat[keep]
        self._reach_offsets[1:] = np.cumsum(np.bincount(src[keep], minlength=n_mcs))

    # ------------------------------------------------------------------
    # neighborhood machinery

    def _bulk_neighbors(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ε-neighborhoods (strict <, self included) of live ``rows``.

        Each row's candidates are the live members of its MC's reach
        list (Lemma 3: the complete ε-candidate set); the (row, member)
        pairs are scored in budgeted passes (:func:`pair_passes`) with the
        direct per-pair form, whose values do not depend on the pass.
        Returns the CSR ``(offsets, nbrs, raw)``: row ``rows[i]``'s
        neighbors are ``nbrs[offsets[i]:offsets[i + 1]]``, with their
        raw distances alongside.
        """
        if not rows.size:
            return np.zeros(1, dtype=np.int64), rows, np.zeros(0)
        pts = self.points
        metric = self.metric
        thr = metric.threshold(self.params.eps)
        member_offsets, members, member_pts = self._live_members()
        mc = self._point_mc[rows]
        lo = self._reach_offsets[mc]
        n_reach = self._reach_offsets[mc + 1] - lo
        reach = self._reach_flat[concat_ranges(lo, n_reach)]
        sizes = member_offsets[reach + 1] - member_offsets[reach]
        self.counters.queries_run += rows.shape[0]
        self.counters.dist_calcs += int(sizes.sum())
        row_pts = np.take(pts, rows, axis=0)
        origin = np.zeros(pts.shape[1])
        owner_parts, nbr_parts, raw_parts = [rows[:0]], [rows[:0]], [row_pts[:0, 0]]
        for idx, pos in pair_passes(
            np.repeat(np.arange(rows.shape[0]), n_reach), member_offsets[reach], sizes
        ):
            # raw_pairwise_stable's per-pair form: row - candidate
            diff = np.take(row_pts, idx, axis=0)
            diff -= np.take(member_pts, pos, axis=0)
            raw = metric.raw_to_point(diff, origin)
            hit = np.flatnonzero(raw < thr)
            owner_parts.append(idx[hit])
            nbr_parts.append(members[pos[hit]])
            raw_parts.append(raw[hit])
        owner = np.concatenate(owner_parts)
        offsets = np.searchsorted(owner, np.arange(rows.shape[0] + 1))
        return offsets, np.concatenate(nbr_parts), np.concatenate(raw_parts)

    # ------------------------------------------------------------------
    # insert path

    def _validate_batch(self, X: np.ndarray) -> np.ndarray:
        pts = np.ascontiguousarray(X, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2:
            raise ValueError(f"batch must be 2-D, got shape {np.asarray(X).shape}")
        require_finite(pts, "batch")
        if self.dim is None:
            if pts.shape[1] < 1:
                raise ValueError("cannot infer dim from an empty-width batch")
            self.dim = int(pts.shape[1])
        if pts.shape[1] != self.dim:
            raise ValueError(
                f"batch must be (k, {self.dim}), got shape {np.asarray(X).shape}"
            )
        return pts

    def _grow_rows(self, k: int) -> None:
        need = self._n + k
        self._alive = _grown(self._alive, need, False)
        self._ncount = _grown(self._ncount, need, 0)
        self._core = _grown(self._core, need, False)
        self._labels = _grown(self._labels, need, -1)
        self._border = _grown(self._border, need, _UNKNOWN)
        self._point_mc = _grown(self._point_mc, need, -1)

    def partial_fit(self, X: np.ndarray) -> "StreamingMuDBSCAN":
        """Insert a batch and fold it into the maintained clustering.

        Updates MC membership + DMC/CMC/SMC status, the exact core
        flags of every affected point, and only the union-find region
        the batch touches (promotions merge components; nothing global
        runs).  With a ``window`` the overflow expires afterwards.
        """
        pts_batch = self._validate_batch(X)
        k = pts_batch.shape[0]
        with maybe_span(
            "stream_partial_fit", algorithm=ALGORITHM, engine="streaming", batch=k
        ):
            before = self._counter_snapshot()
            if k:
                base = self._n
                self._chunks.append(pts_batch)
                self._grow_rows(k)
                new_rows = np.arange(base, base + k, dtype=np.int64)
                self._alive[new_rows] = True
                self._n += k
                self._n_live += k
                self.n_inserted_total += k
                with self.timers.phase("stream_insert"):
                    self._place(new_rows)
                    self._add_members(new_rows)
                    self._absorb(new_rows)
            expired = self._expire_overflow()
            self._finish_update(before, inserted=k, deleted=0, expired=expired)
        return self

    def fit(self, X: np.ndarray) -> "StreamingMuDBSCAN":
        """sklearn-style alias: one-shot :meth:`partial_fit` on an empty
        stream (raises if the stream already has points)."""
        if self._n:
            raise RuntimeError("fit() requires an empty stream; use partial_fit()")
        return self.partial_fit(X)

    def seed(self, batch: np.ndarray) -> None:
        """Bulk-load an initial dataset (partial_fit on an empty stream)."""
        if self._n:
            raise RuntimeError("seed() requires an empty stream; use partial_fit()")
        self.partial_fit(batch)

    def _absorb(self, new_rows: np.ndarray) -> None:
        """Fold freshly placed rows into counts / cores / components."""
        base = int(new_rows[0])
        min_pts = self.params.min_pts
        offsets, nbrs, _ = self._bulk_neighbors(new_rows)
        # exact count update: the counts that change are exactly the
        # ε-neighbors of the batch (symmetry of the distance)
        self._ncount[new_rows] = np.diff(offsets)
        old = nbrs[nbrs < base]
        np.add.at(self._ncount, old, 1)
        touched_old = np.unique(old)

        # promotions: merges only — no component can split on insert
        promoted_new = new_rows[self._ncount[new_rows] >= min_pts]
        promoted_old = touched_old[
            (~self._core[touched_old]) & (self._ncount[touched_old] >= min_pts)
        ]
        promoted = np.concatenate([promoted_new, promoted_old])
        self._core[promoted] = True
        self._labels[promoted] = self._label_uf.extend(promoted.size)
        src = np.repeat(new_rows, np.diff(offsets))
        from_core = self._core[src]  # a new row is core iff promoted
        old_offsets, old_nbrs, _ = self._bulk_neighbors(promoted_old)
        old_src = np.repeat(promoted_old, np.diff(old_offsets))
        self._link_cores(
            np.concatenate([src[from_core], old_src]),
            np.concatenate([nbrs[from_core], old_nbrs]),
        )

        # border-cache invalidation: every row whose neighborhood (or
        # whose nearby core set) changed this batch
        inv = np.unique(np.concatenate([new_rows, touched_old, old_nbrs]))
        self._border[inv] = _UNKNOWN
        self.last_update_stats["promotions"] = int(promoted.shape[0])
        self.last_update_stats["touched_rows"] = int(inv.shape[0])

    def _link_cores(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Union the labels of every (core, core) ε-edge ``(src, dst)``.

        Every core ``src`` carries a fresh label already; symmetry makes
        one directed pass per row sufficient, and the batch's edges
        resolve in one :meth:`UnionFind.union_edges`."""
        link = self._core[dst] & (dst != src)
        self._label_uf.union_edges(self._labels[src[link]], self._labels[dst[link]])

    # ------------------------------------------------------------------
    # delete / expiry path

    def delete(self, ids: np.ndarray | Iterable[int] | int) -> "StreamingMuDBSCAN":
        """Remove live points by global row id (see :attr:`ids_`).

        Cores demote locally (exact count maintenance); components that
        lost a core are repaired in place — every other component's
        labels are untouched.
        """
        rows = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if rows.size == 0:
            return self
        bad = (rows < 0) | (rows >= self._n)
        bad[~bad] = ~self._alive[rows[~bad]]
        if bad.any():
            raise ValueError(f"unknown or already-deleted ids: {rows[bad][:8].tolist()}")
        if np.unique(rows).shape[0] != rows.shape[0]:
            raise ValueError("delete ids contain duplicates")
        with maybe_span(
            "stream_delete", algorithm=ALGORITHM, engine="streaming", batch=len(rows)
        ):
            before = self._counter_snapshot()
            with self.timers.phase("stream_delete"):
                self._delete_rows(rows)
            self.n_deleted_total += int(rows.shape[0])
            self._finish_update(before, inserted=0, deleted=int(rows.shape[0]), expired=0)
        return self

    def _delete_rows(self, rows: np.ndarray) -> None:
        min_pts = self.params.min_pts
        _, nbrs, _ = self._bulk_neighbors(rows)  # all still live here
        np.add.at(self._ncount, nbrs, -1)
        find = self._label_uf.find
        # roots of the components that lose a core (captured pre-clear)
        affected = [find(x) for x in self._labels[rows[self._core[rows]]].tolist()]
        np.add.at(self._ic_count, self._point_mc[rows[self._in_inner_circle(rows)]], -1)
        self._alive[rows] = False
        self._ncount[rows] = 0
        self._core[rows] = False
        self._labels[rows] = -1
        self._border[rows] = _UNKNOWN
        self._n_live -= rows.shape[0]
        self._drop_members(rows)
        touched = np.unique(nbrs)
        touched = touched[self._alive[touched]]
        demoted = touched[self._core[touched] & (self._ncount[touched] < min_pts)]
        affected += [find(x) for x in self._labels[demoted].tolist()]
        self._core[demoted] = False
        self._labels[demoted] = -1
        repaired = self._repair_components(np.unique(affected)) if affected else 0
        inv = np.unique(np.concatenate([touched, demoted]))
        self._border[inv] = _UNKNOWN
        self.last_update_stats["demotions"] = int(demoted.shape[0])
        self.last_update_stats["repaired_rows"] = repaired
        self.last_update_stats["touched_rows"] = int(touched.shape[0])

    def _repair_components(self, affected: np.ndarray) -> int:
        """Rebuild connectivity of the touched components only.

        A component is closed under core ε-adjacency, so relabelling
        its surviving cores and re-linking them against their core
        neighbors is a complete (and purely local) repair — splits fall
        out as distinct fresh labels."""
        with self.timers.phase("stream_repair"):
            crows = np.flatnonzero(self._alive[: self._n] & self._core[: self._n])
            if crows.size == 0:
                return 0
            canon = self._label_uf.roots()[self._labels[crows]]
            region = crows[np.isin(canon, affected)]
            self._labels[region] = self._label_uf.extend(region.size)
            offsets, nbrs, _ = self._bulk_neighbors(region)
            src = np.repeat(region, np.diff(offsets))
            # the region holds every core ε-adjacent to one of its cores,
            # so each core edge is listed from both ends: link it once
            once = src < nbrs
            self._link_cores(src[once], nbrs[once])
            self.counters.add_extra("stream_repaired_rows", int(region.shape[0]))
            return int(region.shape[0])

    def _oldest(self, n: int) -> np.ndarray:
        """The ``n`` oldest live rows; the expiry cursor moves past them."""
        cursor = self._expire_cursor
        rows = np.flatnonzero(self._alive[cursor : self._n])[:n] + cursor
        if rows.size:
            self._expire_cursor = int(rows[-1]) + 1
        return rows

    def _expire_overflow(self) -> int:
        if self.window is None or self._n_live <= self.window:
            return 0
        excess = self._n_live - self.window
        with self.timers.phase("stream_expire"):
            self._delete_rows(self._oldest(excess))
        self.n_expired_total += excess
        return excess

    def expire(self, n: int) -> "StreamingMuDBSCAN":
        """Explicitly expire the ``n`` oldest live points."""
        n = min(n, self._n_live)
        if n < 1:
            return self
        with maybe_span(
            "stream_expire", algorithm=ALGORITHM, engine="streaming", batch=n
        ):
            before = self._counter_snapshot()
            with self.timers.phase("stream_expire"):
                self._delete_rows(self._oldest(n))
            self.n_expired_total += n
            self._finish_update(before, inserted=0, deleted=0, expired=n)
        return self

    # ------------------------------------------------------------------
    # compaction

    @property
    def n_degenerate_mcs(self) -> int:
        return int(np.count_nonzero(self._degenerate_mask()))

    def compact(self, force: bool = False) -> int:
        """Dissolve degenerate MCs and re-place their live members.

        Returns the number of MCs dissolved.  The live members are
        placed through the builder against the surviving centers and
        the dissolved MCs leave the reach CSR — per-point state
        (counts, cores, labels) is untouched, because Theorem 1 makes
        the clustering independent of the particular valid MC
        partition.  Hence
        compaction is idempotent: a second call finds nothing
        degenerate.  ``force`` dissolves every live MC.
        """
        with maybe_span("stream_compact", algorithm=ALGORITHM, engine="streaming"):
            dirty = self._mc_alive.copy() if force else self._degenerate_mask()
            n_dirty = int(np.count_nonzero(dirty))
            if n_dirty:
                with self.timers.phase("stream_compact"):
                    live = self.live_rows()
                    self._mc_alive[dirty] = False
                    self._ic_count[dirty] = 0
                    self._drop_reach()
                    self._place(live[dirty[self._point_mc[live]]])
                    self._member_cache = None  # rows moved
                    self.compactions_total += 1
                    self.counters.add_extra("stream_compactions", 1)
            self._updates_since_compact = 0
            self._bound_label_ids()
            return n_dirty

    def _maybe_auto_compact(self) -> None:
        n_alive = self.n_micro_clusters
        n_dirty = self.n_degenerate_mcs
        if self.compact_every is not None and (
            self._updates_since_compact >= self.compact_every
        ):
            self.compact()
        elif n_dirty and n_alive and n_dirty > self.compact_dirty_fraction * n_alive:
            self.compact()

    def _bound_label_ids(self) -> None:
        """Renumber the live cores' canonical labels densely into a
        fresh union-find once the label ids outnumber twice the live
        cores, so its size follows the window, not the stream's
        history.  Components, and so :attr:`labels_`, do not change."""
        cores = np.flatnonzero(self._core[: self._n])
        if len(self._label_uf) <= 2 * cores.size:
            return
        canon = self._label_uf.roots()[self._labels[cores]]
        distinct, self._labels[cores] = np.unique(canon, return_inverse=True)
        self._label_uf = UnionFind(distinct.size, counters=self.counters)

    # ------------------------------------------------------------------
    # label extraction

    def _resolve_borders(self, rows: np.ndarray) -> None:
        """Fill the border cache for non-core ``rows`` that need it.

        Canonical attachment: the core strictly within ε minimising
        (raw distance, row id) — deterministic, so the windowed parity
        checker can recompute the identical attachment for a batch
        refit (`repro.validation.exactness.canonical_labels`).  Taken
        by segment reductions over each row's run of core neighbors.
        """
        homes = self._border[rows]
        stale = homes == _UNKNOWN
        resolved = np.flatnonzero(homes >= 0)
        h = homes[resolved]
        stale[resolved] = (~self._alive[h]) | (~self._core[h])
        todo = rows[stale]
        if todo.size == 0:
            return
        offsets, nbrs, raw = self._bulk_neighbors(todo)
        core = np.flatnonzero(self._core[nbrs])
        owner = np.repeat(np.arange(todo.shape[0]), np.diff(offsets))[core]
        has_home, _, home = run_minima(owner, raw[core], nbrs[core])
        self._border[todo] = _NO_HOME
        self._border[todo[has_home]] = home

    @property
    def labels_(self) -> np.ndarray:
        """Current clustering of the live window (``ids_`` order).

        ``-1`` is noise; clusters are numbered by first appearance.
        Only rows whose border cache was invalidated since the last
        read pay a neighborhood query — everything else is O(window).
        """
        with self.timers.phase("stream_labels"):
            live = self.live_rows()
            raw = np.full(live.shape[0], -1, dtype=np.int64)
            canon = self._label_uf.roots()
            cmask = self._core[live]
            if cmask.any():
                raw[cmask] = canon[self._labels[live[cmask]]]
            nc_pos = np.flatnonzero(~cmask)
            if nc_pos.size:
                nc_rows = live[nc_pos]
                self._resolve_borders(nc_rows)
                homes = self._border[nc_rows]
                has = homes >= 0
                if has.any():
                    raw[nc_pos[has]] = canon[self._labels[homes[has]]]
            return dense_first_appearance(raw)

    @property
    def n_clusters_(self) -> int:
        labels = self.labels_
        return int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0

    def result(self) -> ClusteringResult:
        """Snapshot the live window's clustering as a ClusteringResult.

        Publishes the counters/timers accumulated since the previous
        snapshot to the active metrics registry under
        ``engine="streaming"``.
        """
        if self._n_live == 0:
            raise RuntimeError("insert points before reading a result")
        with maybe_span("stream_result", algorithm=ALGORITHM, engine="streaming"):
            labels = self.labels_
            live = self.live_rows()
            counters = Counters()
            counters.merge(self.counters)
            timers = PhaseTimer()
            for phase, seconds in self.timers.as_dict().items():
                timers.add(phase, seconds)
            result = ClusteringResult(
                labels=labels,
                core_mask=self._core[live].copy(),
                params=self.params,
                algorithm=ALGORITHM,
                counters=counters,
                timers=timers,
                extras={
                    ExtraKeys.ENGINE: "streaming",
                    ExtraKeys.ENGINE_OPTIONS: {
                        "window": self.window,
                        "builder_block_size": self.builder_block_size,
                        "compact_every": self.compact_every,
                        "compact_dirty_fraction": self.compact_dirty_fraction,
                    },
                    ExtraKeys.METRIC: self.metric.name,
                    ExtraKeys.N_MICRO_CLUSTERS: self.n_micro_clusters,
                    ExtraKeys.MC_KIND_COUNTS: self.mc_kind_counts(),
                    "n_live": self._n_live,
                    "n_inserted_total": self.n_inserted_total,
                    "n_deleted_total": self.n_deleted_total,
                    "n_expired_total": self.n_expired_total,
                    "compactions_total": self.compactions_total,
                    "last_update_stats": dict(self.last_update_stats),
                },
            )
            self._publish_delta()
        return result

    # ------------------------------------------------------------------
    # observability

    def _counter_snapshot(self) -> dict[str, float]:
        snap = self.counters.as_dict()
        snap.pop("query_save_fraction", None)
        return snap

    def _finish_update(
        self, before: dict[str, float], *, inserted: int, deleted: int, expired: int
    ) -> None:
        after = self._counter_snapshot()
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        self.last_update_stats.update(
            {
                "inserted": inserted,
                "deleted": deleted,
                "expired": expired,
                "queries": int(delta.get("queries_run", 0)),
                "dist_calcs": int(delta.get("dist_calcs", 0)),
                "n_live": self._n_live,
            }
        )
        self._updates_since_compact += 1
        self._maybe_auto_compact()
        self._bound_label_ids()

    def _publish_delta(self) -> None:
        """Push counter/timer growth since the last snapshot, labelled
        ``engine="streaming"`` (the registry families accumulate)."""
        registry = get_registry()
        if not registry.enabled:
            return
        counters = Counters()
        cur = {}
        for f in dataclass_fields(Counters):
            if f.name == "extra":
                continue
            cur[f.name] = getattr(self.counters, f.name)
            setattr(
                counters,
                f.name,
                cur[f.name] - self._published_counts.get(f.name, 0),
            )
        for key, val in self.counters.extra.items():
            cur[key] = val
            delta = val - self._published_counts.get(key, 0)
            if delta:
                counters.add_extra(key, delta)
        timers = PhaseTimer()
        phases = self.timers.as_dict()
        for phase, seconds in phases.items():
            timers.add(phase, max(0.0, seconds - self._published_phases.get(phase, 0.0)))
        publish_run(
            registry, counters, timers, algorithm=ALGORITHM, engine="streaming"
        )
        self._published_counts = cur
        self._published_phases = dict(phases)

    # ------------------------------------------------------------------
    # serving export

    def to_fitted_model(self, *, compact: bool = True):
        """Export the live window as a servable ``FittedModel``.

        Compacts first (a serving artifact needs every MC anchored on a
        live center row), then remaps live rows to a dense ``0..n-1``
        id space.  No clustering work runs — the artifact is a pure
        snapshot of the maintained state.
        """
        from repro.serving.model import FittedModel  # local: avoid import cycle
        import time as _time

        from repro._version import __version__

        if self._n_live == 0:
            raise RuntimeError("cannot export an empty stream")
        if compact:
            self.compact()
        live = self.live_rows()
        remap = np.full(self._n, -1, dtype=np.int64)
        remap[live] = np.arange(live.shape[0], dtype=np.int64)
        member_offsets, members, _ = self._live_members()
        sizes = np.diff(member_offsets)
        kept = np.flatnonzero(sizes)  # the live MCs that have members
        mc_remap = np.full(sizes.size, -1, dtype=np.int64)
        mc_remap[kept] = np.arange(kept.size)
        # each MC's founder first, as freeze_arrays requires
        owner = self._point_mc[members]
        founder = self._center_rows[owner] == members
        members = members[np.lexsort((~founder, owner))]
        src = np.repeat(np.arange(sizes.size), np.diff(self._reach_offsets))
        src, dst = mc_remap[src], mc_remap[self._reach_flat]
        linked = (src >= 0) & (dst >= 0)
        labels = self.labels_
        counters = Counters()
        counters.merge(self.counters)
        return FittedModel(
            points=self.points[live].copy(),
            labels=labels,
            core_mask=self._core[live].copy(),
            point_mc=mc_remap[self._point_mc[live]],
            center_rows=remap[self._center_rows[kept]],
            member_offsets=np.r_[0, np.cumsum(sizes[kept])],
            member_flat=remap[members],
            reach_offsets=np.searchsorted(src[linked], np.arange(kept.size + 1)),
            reach_flat=dst[linked],
            params=self.params,
            metric_name=self.metric.name,
            algorithm=ALGORITHM,
            counters=counters,
            extras={
                ExtraKeys.ENGINE: "streaming",
                ExtraKeys.N_MICRO_CLUSTERS: int(kept.size),
                ExtraKeys.MC_KIND_COUNTS: self.mc_kind_counts(),
            },
            meta={
                "created_unix": _time.time(),
                "repro_version": __version__,
                "engine": "streaming",
                "engine_options": {"window": self.window},
                "stream": {
                    "n_inserted_total": self.n_inserted_total,
                    "n_deleted_total": self.n_deleted_total,
                    "n_expired_total": self.n_expired_total,
                    "compactions_total": self.compactions_total,
                },
            },
        )


class IncrementalMuDBSCAN(StreamingMuDBSCAN):
    """Deprecated name for :class:`StreamingMuDBSCAN`.

    The historical method spellings survive as one-shot-warning shims:
    ``insert()`` → :meth:`~StreamingMuDBSCAN.partial_fit`,
    ``cluster()`` → :meth:`~StreamingMuDBSCAN.result`.
    """

    @deprecated_method("partial_fit")
    def insert(self, batch: np.ndarray) -> None:
        self.partial_fit(batch)

    @deprecated_method("result")
    def cluster(self) -> ClusteringResult:
        return self.result()
