"""The two-level μR-tree (paper Fig. 1) and its restricted ε-queries.

Level 1 is an R-tree over micro-clusters (boxes ``center ± eps``).
Level 2 answers ε-queries over each MC's reachable MCs in one of three
``aux_index`` modes: ``"cached"`` (the default) scans the MC's reach
block, the concatenated members of its reachable MCs, in one vectorized
pass; ``"flat"`` scans each reachable MC's contiguous coordinate block
after per-point MBR filtration; ``"rtree"`` walks a per-MC AuxR-tree,
the paper's structure.  With the paper's ``r`` in the tens to hundreds,
a numpy distance pass over a block beats a Python-level tree walk, and
the *search-space* reduction, which is what the design contributes, is
the same.  All three modes return exactly the same neighborhoods; the
test suite asserts it.

A neighborhood query for point ``x ∈ MC(p)`` (paper §IV-B2):

1. take ``MC(p)``'s reachable list (centers within 3ε, Lemma 3);
2. *filtration*: keep only reachable MCs whose tight member-MBR
   intersects the ball ``B(x, radius)``;
3. exact strict-< distance test against the surviving MCs' members.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.distance import require_finite, sq_dists_to_point
from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.geometry.regions import point_rect_sq_dist
from repro.index.grid import concat_ranges, neighbor_members
from repro.index.rtree import RTree, PointRTree
from repro.instrumentation.counters import Counters
from repro.microcluster.builder import DEFAULT_BUILDER_BLOCK_SIZE, build_micro_clusters
from repro.microcluster.microcluster import MicroCluster
from repro.microcluster.reachability import compute_reachable

__all__ = ["MuRTree", "BlockQueryResult", "DEFAULT_BLOCK_SIZE", "DENSE_MIN_CANDIDATES"]

#: default row budget per batched distance block — bounds the transient
#: ``block_size x |reachable block|`` matrix of one ``query_ball_block``
#: chunk (see docs/TUNING.md)
DEFAULT_BLOCK_SIZE = 1024

#: reach blocks of at least this many candidates are *dense*: Algorithm 6
#: answers their MC's rows per MC with ``query_ball_block`` matrices (one
#: BLAS expansion each), so their coordinates are copied when the blocks
#: are laid out; smaller blocks are answered by flat waves of (row,
#: candidate) pairs (``repro.core.remaining``).  On the perfbench fit
#: inputs (``halos``: 5,376 MCs, median reach block 11 candidates;
#: ``blobs``: 941 MCs, median 450) Algorithm 6 took 0.31 / 0.19 / 0.19 /
#: 0.17 s on ``halos`` and 0.50 / 0.46 / 0.49 / 1.13 s on ``blobs`` with
#: thresholds 64 / 256 / 1,024 / none (flat waves only): median CPU
#: seconds of 5 interleaved runs, 2-vCPU VM.
DENSE_MIN_CANDIDATES = 256


def _flatten(parts: list[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _check_aux_index(aux_index: str, metric: Metric) -> None:
    if aux_index not in ("cached", "flat", "rtree"):
        raise ValueError(
            f"aux_index must be 'cached', 'flat' or 'rtree', got {aux_index!r}"
        )
    if aux_index == "rtree" and metric is not EUCLIDEAN:
        raise ValueError(
            "aux_index='rtree' supports the euclidean metric only; "
            "use 'cached' or 'flat' for other metrics"
        )


class BlockQueryResult:
    """Answers of one batched per-MC ε-neighborhood query.

    Every member of a micro-cluster shares the MC's cached reachable
    block (Lemma 3), so :meth:`MuRTree.query_ball_block` answers many
    queries with one ``(rows x block)`` distance matrix.  Results are
    stored flat (one concatenated neighbor array plus offsets) so the
    per-row views handed back by :meth:`nbrs` / :meth:`raw` /
    :meth:`inner` are O(1) slices, not copies.

    Attributes
    ----------
    rows:
        The queried dataset rows, in the order given to the query.
    n_eps, n_half:
        Per-row neighbor counts ``|N_eps|`` and ``|N_{eps/2}|``
        (strict ``<``, the query point included in both).
    per_row_cost:
        Exact distance evaluations charged per answered row — callers
        running *lazy* work accounting (``count_work=False``) add this
        to ``Counters.dist_calcs`` once per row they actually consume,
        which keeps the books identical to the per-point query path.
    """

    __slots__ = (
        "rows",
        "n_eps",
        "n_half",
        "per_row_cost",
        "_nbr_flat",
        "_raw_flat",
        "_offsets",
        "_h_raw",
    )

    def __init__(
        self,
        rows: np.ndarray,
        nbr_flat: np.ndarray,
        raw_flat: np.ndarray,
        offsets: np.ndarray,
        n_eps: np.ndarray,
        n_half: np.ndarray,
        h_raw: float,
        per_row_cost: int,
    ) -> None:
        self.rows = rows
        self._nbr_flat = nbr_flat
        self._raw_flat = raw_flat
        self._offsets = offsets
        self._h_raw = h_raw
        self.n_eps = n_eps
        self.n_half = n_half
        self.per_row_cost = int(per_row_cost)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def nbrs(self, i: int) -> np.ndarray:
        """Global neighbor indices of the ``i``-th queried row."""
        return self._nbr_flat[self._offsets[i] : self._offsets[i + 1]]

    def raw(self, i: int) -> np.ndarray:
        """Raw metric values aligned with :meth:`nbrs`."""
        return self._raw_flat[self._offsets[i] : self._offsets[i + 1]]

    def inner(self, i: int) -> np.ndarray:
        """Neighbors of row ``i`` strictly within the half radius.

        Derived lazily from the ε-result (the half ball is a subset of
        the ε-ball), so only the few rows the dynamic wndq-core rule
        actually fires on pay for the materialised list."""
        s, e = self._offsets[i], self._offsets[i + 1]
        return self._nbr_flat[s:e][self._raw_flat[s:e] < self._h_raw]


class MuRTree:
    """Two-level micro-cluster index over a fixed dataset.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset, held by reference.
    eps:
        DBSCAN ε — fixes the MC radius and all derived thresholds.
    aux_index:
        ``"cached"`` (default): each MC gets its *reach block*, the
        concatenation of its reachable MCs' member rows, so every
        ε-query is a *single* vectorized distance pass — this is where
        the design's spatial locality pays off under numpy (reachable
        sets are small and reused by every member of the MC).  The rows
        of all blocks form one CSR (:attr:`reach_flat`,
        :attr:`reach_offsets`); coordinates are copied for the dense
        blocks only, and for any other block on first use.
        ``"flat"``: per-reachable-MC vectorized scans with per-point
        MBR filtration.  ``"rtree"``: per-MC AuxR-trees as in the
        paper's Fig. 1.  All three return identical neighborhoods.
    filtration:
        Per-point reachable-MC filtration (step 2 above).  ``False``
        scans every reachable MC (ablation 4 in DESIGN.md §5).
    defer_2eps:
        Passed to the builder (ablation 1).
    aux_bulk:
        ``aux_index="rtree"`` only: pack each AuxR-tree with the STR
        bulk loader (default) instead of one-by-one Guttman inserts —
        membership is final when the trees are built, so a static
        packing is both faster and tighter.  ``False`` exercises the
        dynamic insert path (and is what the index microbenchmark
        compares against).
    builder_block_size:
        Rows per vectorized sweep block of Algorithm 3.
    """

    def __init__(
        self,
        points: np.ndarray,
        eps: float,
        *,
        aux_index: str = "cached",
        filtration: bool = True,
        defer_2eps: bool = True,
        max_entries: int = 64,
        counters: Counters | None = None,
        metric: str | Metric = EUCLIDEAN,
        aux_bulk: bool = True,
        builder_block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
    ) -> None:
        self.metric = get_metric(metric)
        _check_aux_index(aux_index, self.metric)
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {self.points.shape}")
        require_finite(self.points)
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self.aux_index = aux_index
        self.filtration = filtration
        self.counters = counters if counters is not None else Counters()

        self.mcs: list[MicroCluster]
        self.level1: RTree
        self.point_mc: np.ndarray
        self.mcs, self.level1, self.point_mc = build_micro_clusters(
            self.points,
            self.eps,
            max_entries=max_entries,
            counters=self.counters,
            defer_2eps=defer_2eps,
            metric=self.metric,
            block_size=builder_block_size,
        )
        if aux_index == "rtree":
            for mc in self.mcs:
                assert mc.member_rows is not None and mc.member_points is not None
                mc.aux_tree = PointRTree(
                    mc.member_points,
                    ids=mc.member_rows,
                    counters=self.counters,
                    bulk=aux_bulk,
                )
        self._reachable_done = False
        self.reach_flat: np.ndarray | None = None
        self.reach_offsets: np.ndarray | None = None

    @classmethod
    def from_prebuilt(
        cls,
        points: np.ndarray,
        eps: float,
        mcs: list[MicroCluster],
        level1: RTree,
        point_mc: np.ndarray,
        *,
        aux_index: str = "cached",
        filtration: bool = True,
        counters: Counters | None = None,
        metric: str | Metric = EUCLIDEAN,
    ) -> "MuRTree":
        """Wrap micro-clusters and a first-level tree built elsewhere.

        A loaded model restores them from its artifact instead of
        re-running Algorithm 3 (``repro.serving.model``), and the
        reference pipeline builds them with the paper's per-point scan
        (``repro.validation.reference``).  Every MC must already be
        frozen.
        """
        self = cls.__new__(cls)
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.metric = get_metric(metric)
        _check_aux_index(aux_index, self.metric)
        self.eps = float(eps)
        self.aux_index = aux_index
        self.filtration = filtration
        self.counters = counters if counters is not None else Counters()
        self.mcs = mcs
        self.level1 = level1
        self.point_mc = np.asarray(point_mc, dtype=np.int64)
        if any(not mc.frozen for mc in mcs):
            raise ValueError("all micro-clusters must be frozen")
        if aux_index == "rtree":
            for mc in self.mcs:
                if mc.aux_tree is None:
                    mc.aux_tree = PointRTree(
                        mc.member_points, ids=mc.member_rows, counters=self.counters
                    )
        # reach lists may be pre-populated by the caller;
        # compute_reachability() computes them only when some are missing
        self._reachable_done = all(mc.reach_ids is not None for mc in mcs)
        self.reach_flat = None
        self.reach_offsets = None
        return self

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_micro_clusters(self) -> int:
        return len(self.mcs)

    @property
    def avg_mc_size(self) -> float:
        """The paper's ``r`` — average points per micro-cluster."""
        if not self.mcs:
            return 0.0
        return len(self) / len(self.mcs)

    def compute_reachability(self) -> None:
        """Populate every MC's reachable list (Algorithm 5); idempotent.

        In ``cached`` mode this also lays out every MC's reach block —
        the concatenated member rows of its reachable MCs — as one CSR,
        :attr:`reach_flat` cut by :attr:`reach_offsets` (MC ``i``'s rows
        are ``reach_flat[reach_offsets[i]:reach_offsets[i + 1]]``), with
        each ``mc.reach_rows`` a view into it.  Only the blocks of at
        least :data:`DENSE_MIN_CANDIDATES` rows, whose MCs Algorithm 6
        answers per MC, get their coordinates (``mc.reach_points``)
        copied here, all in one gather; any other block is copied on
        first read (by :meth:`query_ball` or :meth:`query_ball_block`),
        so the small blocks of sparse data hold no copy.  When every
        MC's reach list is already set (a prebuilt tree's, or the
        reference pipeline's tree probe), only this layout runs."""
        if not self._reachable_done and any(mc.reach_ids is None for mc in self.mcs):
            compute_reachable(self.mcs, self.eps, self.counters, metric=self.metric)
        self._reachable_done = True
        if self.aux_index == "cached" and self.reach_offsets is None:
            self._lay_out_reach_blocks()

    def _lay_out_reach_blocks(self) -> None:
        """Build the reach CSR with one gather through the member lists."""
        mcs = self.mcs
        m = len(mcs)
        sizes = np.fromiter((mc.member_rows.shape[0] for mc in mcs), np.int64, m)
        n_reach = np.fromiter((mc.reach_ids.shape[0] for mc in mcs), np.int64, m)
        member_start = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=member_start[1:])
        reach_start = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(n_reach, out=reach_start[1:])
        self.reach_offsets, self.reach_flat = neighbor_members(
            reach_start,
            _flatten([mc.reach_ids for mc in mcs], np.int64),
            member_start[:-1],
            sizes,
            _flatten([mc.member_rows for mc in mcs], np.int64),
        )
        # dense blocks get their coordinates now, from one gather, each
        # block a view into it
        length = np.diff(self.reach_offsets)
        dense = length >= DENSE_MIN_CANDIDATES
        coords = np.take(
            self.points,
            np.take(
                self.reach_flat,
                concat_ranges(self.reach_offsets[:-1][dense], length[dense]),
            ),
            axis=0,
        )
        coord_start = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.where(dense, length, 0), out=coord_start[1:])
        bounds = self.reach_offsets.tolist()
        coord_bounds = coord_start.tolist()
        for i, (mc, is_dense) in enumerate(zip(mcs, dense.tolist())):
            mc.set_reach_rows(
                self.reach_flat[bounds[i] : bounds[i + 1]],
                self.points,
                coords[coord_bounds[i] : coord_bounds[i + 1]] if is_dense else None,
            )

    # ------------------------------------------------------------------
    # queries

    def _filtered_reach(self, x: np.ndarray, mc_id: int, radius: float) -> list[int]:
        """Reachable MCs of ``mc_id`` whose member-MBR the ball can touch."""
        mc = self.mcs[mc_id]
        if mc.reach_ids is None:
            raise RuntimeError("call compute_reachability() before querying")
        if not self.filtration:
            return [int(w) for w in mc.reach_ids]
        out: list[int] = []
        limit = self.metric.threshold(radius)
        for w in mc.reach_ids:
            other = self.mcs[int(w)]
            assert other.mbr_low is not None and other.mbr_high is not None
            if self.metric.raw_point_rect(x, other.mbr_low, other.mbr_high) <= limit:
                out.append(int(w))
            else:
                self.counters.add_extra("filtration_prunes")
        return out

    def query_ball(
        self, row: int, radius: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact ε-neighborhood of dataset point ``row``.

        Returns ``(rows, raw_dists)``: global indices of points strictly
        within ``radius`` (default: the tree's ε) of the point, and their
        *raw* metric values (squared distances for Euclidean) — callers
        split on ``metric.threshold(eps/2)`` for the dynamic wndq-core
        rule without recomputing.

        The query point itself is included (distance 0).
        """
        radius = self.eps if radius is None else float(radius)
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        x = self.points[row]
        mc_id = int(self.point_mc[row])
        r_raw = self.metric.threshold(radius)
        if self.aux_index == "cached":
            mc = self.mcs[mc_id]
            if mc.reach_points is None:
                raise RuntimeError("call compute_reachability() before querying")
            self.counters.dist_calcs += int(mc.reach_rows.shape[0])
            raw = self.metric.raw_to_point(mc.reach_points, x)
            mask = raw < r_raw
            return mc.reach_rows[mask], raw[mask]
        keep = self._filtered_reach(x, mc_id, radius)
        rows_parts: list[np.ndarray] = []
        sq_parts: list[np.ndarray] = []
        if self.aux_index == "rtree":
            for w in keep:
                tree = self.mcs[w].aux_tree
                assert tree is not None
                hits = tree.query_ball(x, radius)
                if hits.size:
                    rows_parts.append(hits)
            if not rows_parts:
                return np.empty(0, dtype=np.int64), np.empty(0)
            rows = np.concatenate(rows_parts)
            # recompute distances for the (small) result set; the tree
            # already counted its candidate distance work
            sq = sq_dists_to_point(self.points[rows], x)
            return rows, sq
        for w in keep:
            other = self.mcs[w]
            assert other.member_points is not None and other.member_rows is not None
            self.counters.dist_calcs += int(other.member_rows.shape[0])
            raw = self.metric.raw_to_point(other.member_points, x)
            mask = raw < r_raw
            if mask.any():
                rows_parts.append(other.member_rows[mask])
                sq_parts.append(raw[mask])
        if not rows_parts:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.concatenate(rows_parts), np.concatenate(sq_parts)

    def query_ball_block(
        self,
        mc_id: int,
        rows: np.ndarray,
        radius: float | None = None,
        *,
        half_radius: float | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        count_work: bool = True,
        validate: bool = True,
    ) -> BlockQueryResult:
        """Batched exact ε-neighborhoods for many members of one MC.

        All ``rows`` must belong to micro-cluster ``mc_id``: they then
        share the MC's reachable set (Lemma 3), so in ``cached`` mode the
        whole batch is answered by ``ceil(len(rows) / block_size)``
        vectorized ``(chunk x |cached block|)`` distance-matrix passes
        instead of one Python-level :meth:`query_ball` per point.  Each
        answer is exactly what :meth:`query_ball` returns for that row
        (same strict-< semantics, same self-inclusion), plus the
        ``|N_{eps/2}|`` count / inner neighbor list the dynamic
        wndq-core rule needs — derived from the same matrix, no second
        distance pass.

        Parameters
        ----------
        rows:
            Dataset rows to query, all members of ``mc_id``.
        radius:
            Ball radius (default: the tree's ε).
        half_radius:
            Inner-ball radius for the ``n_half`` counts (default
            ``radius / 2`` — the wndq-core rule's ball).
        block_size:
            Row budget per distance block; bounds the transient matrix
            to ``block_size x |cached block|`` doubles.
        count_work:
            When True, charge ``len(rows) x |block|`` distance
            evaluations to the shared counters now.  ``False`` defers
            the accounting to the caller (see
            :attr:`BlockQueryResult.per_row_cost`) — only supported in
            ``cached`` mode, where the per-row cost is uniform.
        validate:
            Check that every row is a member of ``mc_id``.  Callers
            that group rows by ``point_mc`` themselves (the clustering
            engine) pass ``False`` to skip the redundant pass.

        In ``flat`` / ``rtree`` modes the reachable-MC *filtration* is
        inherently per-point, so this method degrades to a per-row
        :meth:`query_ball` loop (identical results and counters); the
        vectorized win is a ``cached``-mode property.
        """
        radius = self.eps if radius is None else float(radius)
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        half_radius = radius * 0.5 if half_radius is None else float(half_radius)
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        rows_arr = np.asarray(rows, dtype=np.int64)
        if rows_arr.ndim != 1:
            raise ValueError(f"rows must be 1-d, got shape {rows_arr.shape}")
        if (
            validate
            and rows_arr.size
            and not np.all(self.point_mc[rows_arr] == mc_id)
        ):
            raise ValueError(f"all rows must belong to micro-cluster {mc_id}")
        r_raw = self.metric.threshold(radius)
        h_raw = self.metric.threshold(half_radius)

        if self.aux_index != "cached":
            if not count_work:
                raise ValueError(
                    "count_work=False (lazy accounting) requires aux_index='cached'"
                )
            return self._query_ball_block_fallback(rows_arr, radius, h_raw)

        mc = self.mcs[mc_id]
        if mc.reach_points is None:
            raise RuntimeError("call compute_reachability() before querying")
        cand_rows = mc.reach_rows
        cand_pts = mc.reach_points
        per_row_cost = int(cand_rows.shape[0])
        if count_work:
            self.counters.dist_calcs += rows_arr.size * per_row_cost

        nbr_parts: list[np.ndarray] = []
        raw_parts: list[np.ndarray] = []
        count_parts: list[np.ndarray] = []
        for start in range(0, rows_arr.size, block_size):
            chunk = rows_arr[start : start + block_size]
            raw_mat = self.metric.raw_pairwise(self.points[chunk], cand_pts)
            # flat positions of the hits, row-major: each row's hits in
            # ascending candidate order, as query_ball returns them
            hit = np.flatnonzero(raw_mat < r_raw)
            raw_parts.append(np.take(raw_mat, hit))
            nbr_parts.append(np.take(cand_rows, hit % per_row_cost))
            row_ends = np.searchsorted(
                hit, np.arange(0, (chunk.size + 1) * per_row_cost, per_row_cost)
            )
            count_parts.append(np.diff(row_ends))

        counts = _flatten(count_parts, np.int64)
        raw_flat = _flatten(raw_parts, np.float64)
        offsets = np.zeros(rows_arr.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # |N_eps/2| per row from the already-gathered ε-values (the half
        # ball is a subset of the ε-ball) — no second full-matrix pass
        half_cum = np.zeros(raw_flat.size + 1, dtype=np.int64)
        np.cumsum(raw_flat < h_raw, out=half_cum[1:])
        n_half = half_cum[offsets[1:]] - half_cum[offsets[:-1]]
        return BlockQueryResult(
            rows_arr,
            _flatten(nbr_parts, np.int64),
            raw_flat,
            offsets,
            counts,
            n_half,
            h_raw,
            per_row_cost,
        )

    def _query_ball_block_fallback(
        self, rows: np.ndarray, radius: float, h_raw: float
    ) -> BlockQueryResult:
        """Per-row assembly for the non-cached modes (eager counters)."""
        nbr_parts: list[np.ndarray] = []
        raw_parts: list[np.ndarray] = []
        counts = np.zeros(rows.size, dtype=np.int64)
        n_half = np.zeros(rows.size, dtype=np.int64)
        for i, row in enumerate(rows):
            nbrs, raw = self.query_ball(int(row), radius)
            nbr_parts.append(nbrs)
            raw_parts.append(raw)
            counts[i] = nbrs.shape[0]
            n_half[i] = int(np.count_nonzero(raw < h_raw))
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return BlockQueryResult(
            rows,
            _flatten(nbr_parts, np.int64),
            _flatten(raw_parts, np.float64),
            offsets,
            counts,
            n_half,
            h_raw,
            per_row_cost=0,  # work was already charged per query
        )

    def candidates_for_postprocessing(self, row: int) -> np.ndarray:
        """Global indices of all points in the filtered reachable MCs of
        ``row``'s MC — the candidate set Algorithm 7 computes distances
        against (ball radius ε for the filtration step)."""
        x = self.points[row]
        mc_id = int(self.point_mc[row])
        if self.aux_index == "cached":
            mc = self.mcs[mc_id]
            if mc.reach_rows is None:
                raise RuntimeError("call compute_reachability() before querying")
            return mc.reach_rows
        keep = self._filtered_reach(x, mc_id, self.eps)
        parts = [self.mcs[w].member_rows for w in keep]
        parts = [p for p in parts if p is not None and p.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)
