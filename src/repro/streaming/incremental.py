"""True incremental μDBSCAN: insert / delete / expiry with local repair.

The batch pipeline runs Algorithms 3–8 once over a fixed dataset.  This
module maintains the *same* clustering under a live update stream
without re-running the pipeline:

* **micro-cluster structure** — Algorithm 3 incrementally: a new point
  joins the nearest MC whose center is strictly within ε (one level-1
  R-tree probe) or founds one; MC centers never move, so the fixed
  ``center ± eps`` boxes and the symmetric 3ε reachability lists stay
  valid (Lemma 3 is purely geometric).  Deletions remove the member but
  keep the center as a *virtual* anchor — Theorem 1 holds for any valid
  MC partition, and a partition anchored on a departed point is still
  valid (members strictly within ε of the anchor, anchors pairwise
  ≥ ε apart).  DMC / CMC / SMC status is maintained per update from the
  live inner-circle and member counts.
* **core status** — the exact live neighbor count ``|N_ε(p)|`` of every
  live point, updated from the ε-neighborhoods of the inserted/deleted
  points only (symmetry: the points whose count changes are exactly the
  ε-neighbors of the update batch).
* **cluster components** — a union-find over *label ids*, not rows.
  Insertions only ever merge components (a promotion adds core-core
  edges), handled by unioning the promoted core with its core
  neighbors.  Deletions and expiry can *split* a component; the engine
  then repairs **only the touched components**: every still-core member
  of a component that lost a core gets a fresh label and is re-linked
  against its core neighbors (a component is closed under core
  adjacency, so the repair region never leaks).  No global re-cluster
  happens on any path — the per-batch query counters prove it.
* **border points** — resolved lazily and canonically (nearest core
  strictly within ε, ties to the lowest row id) with a per-row cache
  that is invalidated exactly when the row's neighborhood or a nearby
  core's status changed.
* **compaction** — degenerate MCs (dead center or emptied) are
  dissolved and their live members re-assigned through Algorithm 3;
  only the level-1 tree (m entries, not n points) and the touched reach
  lists are rebuilt.  By Theorem 1 this never changes labels, which is
  exactly the compaction-idempotence property the tests check.

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
from repro.index.bulk import str_bulk_load
from repro.index.grid import csr_from_parts
from repro.index.rtree import RTree
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.builder import (
    DEFAULT_BUILDER_BLOCK_SIZE,
    build_micro_cluster_arrays,
)
from repro.microcluster.microcluster import MCKind, freeze_arrays
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
        Rows per vectorized block, honoured by *every* update batch
        (not just the bulk seed): the seed's grid builder sweeps
        blocks of this many rows, and each update batch's
        neighborhoods go through the stable pairwise kernel this many
        rows at a time.  Results do not depend on it.
    compact_every:
        Compact after this many update calls (``None`` = only on the
        degeneracy trigger below, or manually).
    compact_dirty_fraction:
        Auto-compact when more than this fraction of the live MCs is
        degenerate (dead center or emptied).

    The per-update maintenance cost is proportional to the update's
    neighborhood (plus the repaired components on delete), never to the
    buffer size — ``last_update_stats`` exposes the per-batch counters
    the tests gate on.
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
        max_entries: int = 64,
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
        self.max_entries = max_entries
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

        # micro-cluster state
        self._members: list[list[int]] = []  # live member rows per MC
        self._centers: list[np.ndarray] = []
        self._center_rows: list[int] = []
        self._reach_ids: list[list[int]] = []  # symmetric, center-dist <= 3eps
        self._mc_alive: list[bool] = []
        self._n_ic: list[int] = []  # live members strictly within eps/2
        self._degenerate: set[int] = set()  # alive MCs needing compaction

        # label union-find (labels are only ever created and merged;
        # splits mint fresh labels, so ids grow monotonically)
        self._label_uf = UnionFind(0, counters=self.counters)

        self._tree_obj: RTree | None = None

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
        return sum(1 for a in self._mc_alive if a)

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
        """Live DMC / CMC / SMC counts (statuses maintained per update)."""
        counts = {kind.name: 0 for kind in MCKind}
        min_pts = self.params.min_pts
        for mc_id, ok in enumerate(self._mc_alive):
            if not ok or not self._members[mc_id]:
                continue
            if self._n_ic[mc_id] >= min_pts:
                counts[MCKind.DMC.name] += 1
            elif (
                len(self._members[mc_id]) >= min_pts
                and self._alive[self._center_rows[mc_id]]
            ):
                counts[MCKind.CMC.name] += 1
            else:
                counts[MCKind.SMC.name] += 1
        return counts

    # ------------------------------------------------------------------
    # neighborhood machinery

    def _candidate_rows(self, mc_id: int) -> np.ndarray:
        """Live rows of every MC reachable from ``mc_id`` (Lemma 3: the
        complete ε-candidate set for any point of ``mc_id``)."""
        parts = [
            self._members[w]
            for w in self._reach_ids[mc_id]
            if self._mc_alive[w] and self._members[w]
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])

    def _bulk_neighbors(
        self, rows: np.ndarray, pts: np.ndarray, with_raw: bool = False
    ) -> dict[int, Any]:
        """ε-neighborhoods (strict <, self included) of live ``rows``.

        Grouped by owning MC; each group is swept in
        ``builder_block_size`` blocks through the stable pairwise
        kernel, whose values do not depend on the block's shape.
        """
        metric = self.metric
        thr = metric.threshold(self.params.eps)
        out: dict[int, Any] = {}
        by_mc: dict[int, list[int]] = {}
        for r in np.asarray(rows, dtype=np.int64):
            by_mc.setdefault(int(self._point_mc[r]), []).append(int(r))
        for mc_id, group in by_mc.items():
            cand = self._candidate_rows(mc_id)
            cpts = pts[cand]
            self.counters.queries_run += len(group)
            self.counters.dist_calcs += len(group) * cand.shape[0]
            block = self.builder_block_size
            for start in range(0, len(group), block):
                blk = group[start : start + block]
                raw = metric.raw_pairwise_stable(pts[blk], cpts)
                for i, r in enumerate(blk):
                    mask = raw[i] < thr
                    out[r] = (cand[mask], raw[i][mask]) if with_raw else cand[mask]
        return out

    # ------------------------------------------------------------------
    # Algorithm 3, incremental

    def _cover(self) -> float:
        return self.metric.l2_cover_factor(int(self.dim or 1))

    def _try_join(self, row: int, p: np.ndarray) -> int | None:
        """Join the nearest alive MC whose center is strictly within ε."""
        eps = self.params.eps
        metric = self.metric
        candidates = [
            int(c)
            for c in self._tree.query_ball_candidates(p, eps * self._cover())
            if self._mc_alive[int(c)]
        ]
        if not candidates:
            return None
        centers = np.stack([self._centers[c] for c in candidates])
        self.counters.dist_calcs += len(candidates)
        raw = metric.raw_to_point(centers, p)
        best = int(np.argmin(raw))
        if raw[best] < metric.threshold(eps):
            mc_id = candidates[best]
            self._members[mc_id].append(row)
            if raw[best] < metric.threshold(eps * 0.5):
                self._n_ic[mc_id] += 1
            return mc_id
        return None

    def _near_2eps(self, p: np.ndarray) -> bool:
        eps = self.params.eps
        metric = self.metric
        candidates = [
            int(c)
            for c in self._tree.query_ball_candidates(p, 2.0 * eps * self._cover())
            if self._mc_alive[int(c)]
        ]
        if not candidates:
            return False
        centers = np.stack([self._centers[c] for c in candidates])
        self.counters.dist_calcs += len(candidates)
        raw = metric.raw_to_point(centers, p)
        return bool(np.any(raw < metric.threshold(2.0 * eps)))

    def _create_mc(self, row: int, p: np.ndarray) -> int:
        eps = self.params.eps
        metric = self.metric
        mc_id = len(self._members)
        self._members.append([row])
        self._centers.append(np.array(p, dtype=np.float64))
        self._center_rows.append(row)
        self._mc_alive.append(True)
        self._n_ic.append(1)  # the center itself (distance 0)
        self._tree.insert(mc_id, p - eps, p + eps)
        self.counters.micro_clusters += 1
        reach = [mc_id]
        candidates = self._tree.query_ball_candidates(p, 3.0 * eps * self._cover())
        limit = metric.threshold(3.0 * eps)
        for cand in candidates:
            cand = int(cand)
            if cand == mc_id or not self._mc_alive[cand]:
                continue
            self.counters.dist_calcs += 1
            raw = metric.raw_to_point(self._centers[cand][None, :], p)[0]
            if raw <= limit:
                reach.append(cand)
                self._reach_ids[cand].append(mc_id)
        reach.sort()
        self._reach_ids.append(reach)
        return mc_id

    def _assign_rows(self, rows: Iterable[int], pts: np.ndarray) -> None:
        """Algorithm-3 assignment (join / 2ε-defer / create) for rows
        already present in the buffer."""
        deferred: list[int] = []
        for row in rows:
            p = pts[row]
            joined = self._try_join(row, p)
            if joined is not None:
                self._point_mc[row] = joined
                continue
            if self._near_2eps(p):
                deferred.append(row)
                self.counters.deferred_points += 1
            else:
                self._point_mc[row] = self._create_mc(row, p)
        for row in deferred:
            joined = self._try_join(row, pts[row])
            self._point_mc[row] = (
                joined if joined is not None else self._create_mc(row, pts[row])
            )

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

    @property
    def _tree(self) -> RTree:
        tree = getattr(self, "_tree_obj", None)
        if tree is None:
            if self.dim is None:
                raise RuntimeError("dim unknown — insert a batch first")
            tree = RTree(self.dim, max_entries=self.max_entries, counters=self.counters)
            self._tree_obj = tree
        return tree

    @_tree.setter
    def _tree(self, tree: RTree) -> None:
        self._tree_obj = tree

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
                pts = self.points
                with self.timers.phase("stream_insert"):
                    if base == 0:
                        self._seed_structure(pts)
                    else:
                        self._assign_rows(new_rows.tolist(), pts)
                    self._absorb(new_rows, pts)
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

    def _seed_structure(self, pts: np.ndarray) -> None:
        """First batch: the batch fit's Algorithms 3 and 5, its arrays
        split into the maintained per-MC lists."""
        eps = self.params.eps
        point_mc, center_rows, member_offsets, member_flat = build_micro_cluster_arrays(
            pts,
            eps,
            counters=self.counters,
            metric=self.metric,
            block_size=self.builder_block_size,
        )
        centers = np.take(pts, center_rows, axis=0)
        reach_offsets, reach_flat = compute_reachable(
            centers, eps, self.counters, self.metric
        )
        ic_offsets = freeze_arrays(
            pts, center_rows, member_offsets, member_flat, eps, self.metric
        )[3]
        self._point_mc[: pts.shape[0]] = point_mc
        self._members = _split(member_offsets, member_flat)
        self._centers = list(centers)
        self._center_rows = center_rows.tolist()
        self._reach_ids = _split(reach_offsets, reach_flat)
        self._mc_alive = [True] * len(self._center_rows)
        self._n_ic = np.diff(ic_offsets).tolist()
        self._rebuild_level1()

    def _absorb(self, new_rows: np.ndarray, pts: np.ndarray) -> None:
        """Fold freshly assigned rows into counts / cores / components."""
        base = int(new_rows[0])
        min_pts = self.params.min_pts
        nb = self._bulk_neighbors(new_rows, pts)
        # exact count update: the counts that change are exactly the
        # ε-neighbors of the batch (symmetry of the distance)
        old_parts = []
        for r in new_rows:
            nbrs = nb[int(r)]
            self._ncount[r] = nbrs.shape[0]
            old_parts.append(nbrs[nbrs < base])
        old_concat = (
            np.concatenate(old_parts) if old_parts else np.empty(0, dtype=np.int64)
        )
        np.add.at(self._ncount, old_concat, 1)
        touched_old = np.unique(old_concat)

        # promotions: merges only — no component can split on insert
        promoted_new = new_rows[self._ncount[new_rows] >= min_pts]
        promoted_old = touched_old[
            (~self._core[touched_old]) & (self._ncount[touched_old] >= min_pts)
        ]
        promoted = np.concatenate([promoted_new, promoted_old])
        self._core[promoted] = True
        self._labels[promoted] = self._label_uf.extend(promoted.size)
        nb_old = self._bulk_neighbors(promoted_old, pts) if promoted_old.size else {}
        nb_all = {**nb, **nb_old}
        self._link_cores(promoted, nb_all)

        # border-cache invalidation: every row whose neighborhood (or
        # whose nearby core set) changed this batch
        invalid = [new_rows, touched_old]
        for r in promoted_old:
            invalid.append(nb_old[int(r)])
        inv = np.unique(np.concatenate(invalid))
        self._border[inv] = _UNKNOWN
        self.last_update_stats["promotions"] = int(promoted.shape[0])
        self.last_update_stats["touched_rows"] = int(inv.shape[0])

    def _link_cores(self, rows: np.ndarray, nb: dict[int, Any]) -> None:
        """Union every (core, core) ε-edge incident to ``rows``.

        All of ``rows`` carry fresh labels and the core flag already;
        symmetry makes one directed pass per row sufficient, and the
        batch's edges resolve in one :meth:`UnionFind.union_edges`."""
        if not rows.size:
            return
        parts = [nb[int(r)] for r in rows]
        nbrs = np.concatenate(parts)
        src = np.repeat(rows, [p.size for p in parts])
        link = self._core[nbrs] & (nbrs != src)
        self._label_uf.union_edges(self._labels[src[link]], self._labels[nbrs[link]])

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
        bad = [
            int(r)
            for r in rows
            if r < 0 or r >= self._n or not self._alive[r]
        ]
        if bad:
            raise ValueError(f"unknown or already-deleted ids: {bad[:8]}")
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
        pts = self.points
        metric = self.metric
        min_pts = self.params.min_pts
        nb = self._bulk_neighbors(rows, pts)  # all still live here
        concat = np.concatenate([nb[int(r)] for r in rows])
        np.add.at(self._ncount, concat, -1)
        # roots of components that lose a core (captured pre-clear)
        affected: set[int] = {
            self._label_uf.find(int(self._labels[r]))
            for r in rows
            if self._core[r]
        }
        for r in rows:
            r = int(r)
            mc_id = int(self._point_mc[r])
            self._members[mc_id].remove(r)
            raw = metric.raw_to_point(pts[r][None, :], self._centers[mc_id])[0]
            if raw < metric.threshold(self.params.eps * 0.5):
                self._n_ic[mc_id] -= 1
            if self._center_rows[mc_id] == r or not self._members[mc_id]:
                self._degenerate.add(mc_id)
            self._alive[r] = False
            self._ncount[r] = 0
            self._core[r] = False
            self._labels[r] = -1
            self._border[r] = _UNKNOWN
            self._n_live -= 1
        touched = np.unique(concat)
        touched = touched[self._alive[touched]]
        demoted = touched[self._core[touched] & (self._ncount[touched] < min_pts)]
        affected.update(self._label_uf.find(int(self._labels[d])) for d in demoted)
        self._core[demoted] = False
        self._labels[demoted] = -1
        repaired = 0
        if affected:
            repaired = self._repair_components(affected, pts)
        inv = np.unique(np.concatenate([touched, demoted]))
        if inv.size:
            self._border[inv] = _UNKNOWN
        self.last_update_stats["demotions"] = int(demoted.shape[0])
        self.last_update_stats["repaired_rows"] = repaired
        self.last_update_stats["touched_rows"] = int(touched.shape[0])

    def _repair_components(self, affected: set[int], pts: np.ndarray) -> int:
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
            region = crows[np.isin(canon, np.fromiter(affected, dtype=np.int64))]
            self._labels[region] = self._label_uf.extend(region.size)
            nb = self._bulk_neighbors(region, pts)
            self._link_cores(region, nb)
            self.counters.add_extra("stream_repaired_rows", int(region.shape[0]))
            return int(region.shape[0])

    def _expire_overflow(self) -> int:
        if self.window is None or self._n_live <= self.window:
            return 0
        excess = self._n_live - self.window
        olds: list[int] = []
        cursor = self._expire_cursor
        while len(olds) < excess:
            if self._alive[cursor]:
                olds.append(cursor)
            cursor += 1
        self._expire_cursor = cursor
        with self.timers.phase("stream_expire"):
            self._delete_rows(np.asarray(olds, dtype=np.int64))
        self.n_expired_total += excess
        return excess

    def expire(self, n: int) -> "StreamingMuDBSCAN":
        """Explicitly expire the ``n`` oldest live points."""
        if n < 1:
            return self
        n = min(n, self._n_live)
        olds: list[int] = []
        cursor = self._expire_cursor
        while len(olds) < n:
            if self._alive[cursor]:
                olds.append(cursor)
            cursor += 1
        self._expire_cursor = cursor
        with maybe_span(
            "stream_expire", algorithm=ALGORITHM, engine="streaming", batch=n
        ):
            before = self._counter_snapshot()
            with self.timers.phase("stream_expire"):
                self._delete_rows(np.asarray(olds, dtype=np.int64))
            self.n_expired_total += n
            self._finish_update(before, inserted=0, deleted=0, expired=n)
        return self

    # ------------------------------------------------------------------
    # compaction

    @property
    def n_degenerate_mcs(self) -> int:
        return len(self._degenerate)

    def compact(self, force: bool = False) -> int:
        """Dissolve degenerate MCs and re-assign their live members.

        Returns the number of MCs rebuilt.  Only the level-1 tree (one
        entry per MC) and the reach lists touching dissolved/created
        MCs are rebuilt — per-point state (counts, cores, labels) is
        untouched, because Theorem 1 makes the clustering independent
        of the particular valid MC partition.  Hence compaction is
        idempotent: a second call finds nothing degenerate.
        """
        with maybe_span("stream_compact", algorithm=ALGORITHM, engine="streaming"):
            dirty = [m for m in sorted(self._degenerate) if self._mc_alive[m]]
            if force:
                dirty = [m for m in range(len(self._members)) if self._mc_alive[m]]
            if not dirty:
                self._updates_since_compact = 0
                return 0
            with self.timers.phase("stream_compact"):
                pts = self.points
                rows = sorted(r for m in dirty for r in self._members[m])
                for m in dirty:
                    self._mc_alive[m] = False
                    self._members[m] = []
                    for peer in self._reach_ids[m]:
                        if peer != m and self._mc_alive[peer]:
                            try:
                                self._reach_ids[peer].remove(m)
                            except ValueError:
                                pass
                    self._reach_ids[m] = []
                self._degenerate.clear()
                self._rebuild_level1()
                self._assign_rows(rows, pts)
                self.compactions_total += 1
                self.counters.add_extra("stream_compactions", 1)
                self._updates_since_compact = 0
            return len(dirty)

    def _rebuild_level1(self) -> None:
        """STR-pack a fresh level-1 tree over the surviving MC boxes."""
        eps = self.params.eps
        tree = RTree(int(self.dim or 1), max_entries=self.max_entries, counters=self.counters)
        alive = [m for m, ok in enumerate(self._mc_alive) if ok]
        if alive:
            centers = np.stack([self._centers[m] for m in alive])
            str_bulk_load(
                tree,
                centers - eps,
                centers + eps,
                payloads=np.asarray(alive, dtype=np.int64),
            )
        self._tree = tree

    def _maybe_auto_compact(self) -> None:
        n_alive = self.n_micro_clusters
        if self.compact_every is not None and (
            self._updates_since_compact >= self.compact_every
        ):
            self.compact()
        elif (
            self._degenerate
            and n_alive
            and len(self._degenerate) > self.compact_dirty_fraction * n_alive
        ):
            self.compact()

    # ------------------------------------------------------------------
    # label extraction

    def _resolve_borders(self, rows: np.ndarray, pts: np.ndarray) -> None:
        """Fill the border cache for non-core ``rows`` that need it.

        Canonical attachment: the core strictly within ε minimising
        (raw distance, row id) — deterministic, so the windowed parity
        checker can recompute the identical attachment for a batch
        refit (`repro.validation.exactness.canonical_labels`).
        """
        homes = self._border[rows]
        resolved = homes >= 0
        stale = np.zeros(rows.shape[0], dtype=bool)
        if resolved.any():
            h = homes[resolved]
            stale[resolved] = (~self._alive[h]) | (~self._core[h])
        todo = rows[(homes == _UNKNOWN) | stale]
        if todo.size == 0:
            return
        nb = self._bulk_neighbors(todo, pts, with_raw=True)
        for r in todo:
            r = int(r)
            nbrs, raw = nb[r]
            mask = self._core[nbrs]
            if not mask.any():
                self._border[r] = _NO_HOME
                continue
            cores = nbrs[mask]
            rw = raw[mask]
            self._border[r] = int(cores[rw == rw.min()].min())

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
                self._resolve_borders(nc_rows, self.points)
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
        alive_mcs = [
            m for m, ok in enumerate(self._mc_alive) if ok and self._members[m]
        ]
        mc_remap = {m: i for i, m in enumerate(alive_mcs)}
        members: list[np.ndarray] = []
        reaches: list[np.ndarray] = []
        center_rows = np.empty(len(alive_mcs), dtype=np.int64)
        for i, m in enumerate(alive_mcs):
            center = self._center_rows[m]
            rows = [center] + [r for r in self._members[m] if r != center]
            members.append(remap[np.asarray(rows, dtype=np.int64)])
            reaches.append(
                np.asarray(
                    sorted(mc_remap[w] for w in self._reach_ids[m] if w in mc_remap),
                    dtype=np.int64,
                )
            )
            center_rows[i] = remap[center]
        member_offsets, member_flat = csr_from_parts(members)
        reach_offsets, reach_flat = csr_from_parts(reaches)
        labels = self.labels_
        counters = Counters()
        counters.merge(self.counters)
        mc_ids = np.asarray([mc_remap[int(m)] for m in self._point_mc[live]], dtype=np.int64)
        return FittedModel(
            points=self.points[live].copy(),
            labels=labels,
            core_mask=self._core[live].copy(),
            point_mc=mc_ids,
            center_rows=center_rows,
            member_offsets=member_offsets,
            member_flat=member_flat,
            reach_offsets=reach_offsets,
            reach_flat=reach_flat,
            params=self.params,
            metric_name=self.metric.name,
            algorithm=ALGORITHM,
            counters=counters,
            extras={
                ExtraKeys.ENGINE: "streaming",
                ExtraKeys.N_MICRO_CLUSTERS: len(alive_mcs),
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


def _split(offsets: np.ndarray, flat: np.ndarray) -> list[list[int]]:
    """A CSR as one Python list per row."""
    bounds = offsets.tolist()
    values = flat.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]



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
