"""The two-level μR-tree (paper Fig. 1) and its restricted ε-queries.

The paper's level 1 is an R-tree over micro-clusters (boxes
``center ± eps``).  Nothing here builds it: Algorithm 3 finds candidate
centers and Algorithm 5 reachable MCs by grid joins over the centers
(``repro.microcluster.builder``, ``repro.microcluster.reachability``),
so the index is the MC structure itself, held as one set of flat arrays
— the struct-of-arrays the served
:class:`~repro.serving.model.FittedModel` stores (see :class:`MuRTree`).
Level 2 answers ε-queries over each MC's reachable MCs in one of three
``aux_index`` modes: ``"cached"`` (the default) scans the MC's reach
block, the concatenated members of its reachable MCs, in one vectorized
pass, gathering it from the member arrays through the reach CSR for
each call (no block is stored); ``"flat"`` scans each reachable MC's
slice of the member coordinates after per-point MBR filtration;
``"rtree"`` walks a per-MC AuxR-tree, the paper's structure.  With the
paper's ``r`` in the tens to hundreds, a numpy distance pass over a
block beats a Python-level tree walk, and the *search-space* reduction,
which is what the design contributes, is the same.  All three modes return exactly the same
neighborhoods; the test suite asserts it.

A neighborhood query for point ``x ∈ MC(p)`` (paper §IV-B2):

1. take ``MC(p)``'s reachable list (centers within 3ε, Lemma 3);
2. *filtration*: keep only reachable MCs whose tight member-MBR
   intersects the ball ``B(x, radius)``;
3. exact strict-< distance test against the surviving MCs' members.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.geometry.distance import require_finite, sq_dists_to_point
from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.index.grid import concat_ranges
from repro.index.rtree import PointRTree
from repro.instrumentation.counters import Counters
from repro.microcluster.builder import (
    DEFAULT_BUILDER_BLOCK_SIZE,
    build_micro_cluster_arrays,
)
from repro.microcluster.microcluster import MCKind, MicroCluster, freeze_arrays
from repro.microcluster.reachability import compute_reachable

__all__ = ["MuRTree", "BlockQueryResult", "DEFAULT_BLOCK_SIZE", "DENSE_MIN_CANDIDATES"]

#: default row budget per batched distance block — bounds the transient
#: ``block_size x |reachable block|`` matrix of one ``query_ball_block``
#: chunk (see docs/TUNING.md)
DEFAULT_BLOCK_SIZE = 1024

#: reach blocks of at least this many candidates are *dense*: Algorithm 6
#: answers their MC's rows per MC with ``query_ball_block`` matrices (one
#: BLAS expansion each, over the block's coordinates gathered for that
#: call); smaller blocks are answered by flat waves of (row, candidate)
#: pairs (``repro.core.remaining``).  On the perfbench fit
#: inputs (``halos``: 5,376 MCs, median reach block 11 candidates;
#: ``blobs``: 941 MCs, median 450) Algorithm 6 took 0.31 / 0.19 / 0.19 /
#: 0.17 s on ``halos`` and 0.50 / 0.46 / 0.49 / 1.13 s on ``blobs`` with
#: thresholds 64 / 256 / 1,024 / none (flat waves only): median CPU
#: seconds of 5 interleaved runs, 2-vCPU VM.
DENSE_MIN_CANDIDATES = 256


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


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

    Every member of a micro-cluster shares the MC's reach block
    (Lemma 3), so :meth:`MuRTree.query_ball_block` answers many
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

    The MC structure is one set of read-only flat arrays, MC ``k`` being
    row ``k`` of each, laid out as the served
    :class:`~repro.serving.model.FittedModel` stores it (which shares
    them): :attr:`point_mc`, each point's MC id; :attr:`center_rows`,
    each MC's founding row; the member CSR :attr:`member_offsets` /
    :attr:`member_flat` in assignment order, founder first, with
    :attr:`member_points` the coordinates in that order; the tight member
    MBRs :attr:`mbr_low` / :attr:`mbr_high` ``(m, d)``; the inner circle
    (members strictly within ``eps / 2`` of the center) as the CSR
    :attr:`ic_offsets` / :attr:`ic_flat`.  :meth:`compute_reachability`
    adds the reach CSR :attr:`reach_offsets` / :attr:`reach_flat`
    (reachable MC ids, ascending) and :attr:`block_offsets`, the prefix
    sums of the reach blocks' lengths.  No block is stored: every reader
    gathers it from :attr:`member_flat` / :attr:`member_points` through
    the reach CSR (:meth:`block_positions`).  Per-MC
    :class:`MicroCluster` objects exist only as the :attr:`mcs` view.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset, held by reference.
    eps:
        DBSCAN ε — fixes the MC radius and all derived thresholds.
    aux_index:
        ``"cached"`` (default): each MC's ε-queries scan its *reach
        block*, the concatenation of its reachable MCs' members, in a
        *single* vectorized distance pass — this is where the design's
        spatial locality pays off under numpy (reachable sets are small
        and shared by every member of the MC).  The block is gathered
        from the member arrays for each call.  ``"flat"``: per-reachable-MC
        vectorized scans with per-point MBR filtration.  ``"rtree"``:
        per-MC STR-packed AuxR-trees as in the paper's Fig. 1.  All
        three return identical neighborhoods.
    filtration:
        Per-point reachable-MC filtration (step 2 above).  ``False``
        scans every reachable MC (ablation 4 in DESIGN.md §5).
    defer_2eps:
        Passed to the builder (ablation 1).
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
        counters: Counters | None = None,
        metric: str | Metric = EUCLIDEAN,
        builder_block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
    ) -> None:
        self._configure(points, eps, aux_index, filtration, counters, metric)
        self._set_members(
            *build_micro_cluster_arrays(
                self.points,
                self.eps,
                counters=self.counters,
                defer_2eps=defer_2eps,
                metric=self.metric,
                block_size=builder_block_size,
            )
        )

    @classmethod
    def from_arrays(
        cls,
        points: np.ndarray,
        eps: float,
        point_mc: np.ndarray,
        center_rows: np.ndarray,
        member_offsets: np.ndarray,
        member_flat: np.ndarray,
        reach_offsets: np.ndarray | None = None,
        reach_flat: np.ndarray | None = None,
        *,
        aux_index: str = "cached",
        filtration: bool = True,
        counters: Counters | None = None,
        metric: str | Metric = EUCLIDEAN,
    ) -> "MuRTree":
        """Wrap an MC structure built elsewhere, in the layout above:
        a loaded model's stored arrays (``FittedModel.murtree``), or the
        flattened result of the reference pipeline's per-point scan.
        With the reach CSR given, Algorithm 5 never runs."""
        self = cls.__new__(cls)
        self._configure(points, eps, aux_index, filtration, counters, metric)
        self._set_members(point_mc, center_rows, member_offsets, member_flat)
        if reach_offsets is not None:
            self._set_reach(reach_offsets, reach_flat)
        return self

    def _configure(self, points, eps, aux_index, filtration, counters, metric) -> None:
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
        self.reach_offsets = self.reach_flat = None
        self.block_offsets = None
        self._aux_trees: list[PointRTree] | None = None
        self._mcs: list[MicroCluster] | None = None

    def _set_members(self, point_mc, center_rows, member_offsets, member_flat) -> None:
        ids = (point_mc, center_rows, member_offsets, member_flat)
        self.point_mc, self.center_rows, self.member_offsets, self.member_flat = (
            _read_only(*(np.asarray(a, dtype=np.int64) for a in ids))
        )
        derived = freeze_arrays(
            self.points, self.center_rows, self.member_offsets, self.member_flat,
            self.eps, self.metric,
        )
        self.member_points, self.mbr_low, self.mbr_high, self.ic_offsets, self.ic_flat = (
            _read_only(*derived)
        )
        (self._member_sizes,) = _read_only(np.diff(self.member_offsets))
        if self.aux_index == "rtree":
            bounds = self.member_offsets.tolist()
            self._aux_trees = [
                PointRTree(
                    self.member_points[lo:hi],
                    ids=self.member_flat[lo:hi],
                    counters=self.counters,
                )
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]

    def _set_reach(self, reach_offsets: np.ndarray, reach_flat: np.ndarray) -> None:
        self.reach_offsets, self.reach_flat = _read_only(
            np.asarray(reach_offsets, dtype=np.int64), np.asarray(reach_flat, dtype=np.int64)
        )
        self._mcs = None

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_micro_clusters(self) -> int:
        return int(self.center_rows.shape[0])

    @property
    def avg_mc_size(self) -> float:
        """The paper's ``r`` — average points per micro-cluster."""
        return len(self) / self.n_micro_clusters if self.n_micro_clusters else 0.0

    @property
    def _reachable_done(self) -> bool:
        return self.reach_offsets is not None

    def member_rows(self, mc_id: int) -> np.ndarray:
        """Member rows of MC ``mc_id``, founder first."""
        return self.member_flat[self.member_offsets[mc_id] : self.member_offsets[mc_id + 1]]

    def reach_ids(self, mc_id: int) -> np.ndarray:
        """Reachable MC ids of MC ``mc_id``, ascending."""
        if self.reach_offsets is None:
            raise RuntimeError("call compute_reachability() before querying")
        return self.reach_flat[self.reach_offsets[mc_id] : self.reach_offsets[mc_id + 1]]

    def member_positions(self, mc_ids: np.ndarray) -> np.ndarray:
        """Positions in :attr:`member_flat` / :attr:`member_points` of the
        members of ``mc_ids``, MC after MC, each MC's in member order.

        Each MC's range is placed by one ``repeat``, in a handful of
        numpy method calls: per-call readers gather one MC's short reach
        list, where fixed cost dominates (a block's coordinates took 5.4
        µs a call on ``halos`` and 9.6 on ``blobs``, against 11.4 and
        18.2 through ``concat_ranges``; timeit, 2-vCPU VM)."""
        count = self._member_sizes.take(mc_ids)
        ends = count.cumsum()
        at = self.member_offsets.take(mc_ids)
        at -= ends
        at += count
        at = at.repeat(count)
        at += np.arange(ends[-1] if ends.size else 0)
        return at

    def block_positions(self, mc_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The reach blocks of ``mc_ids`` gathered in one pass, as
        positions in the member arrays: returns ``(offsets, at)``, block
        ``i`` being ``at[offsets[i]:offsets[i + 1]]``.  A block lists its
        reachable MCs' members in the reach CSR's order: ascending MC id,
        then each MC's members in member order.  Readers that walk many
        MCs gather here once and slice."""
        if self.block_offsets is None:
            raise RuntimeError("call compute_reachability() before querying")
        ids = np.asarray(mc_ids, dtype=np.int64)
        first = self.reach_offsets[ids]
        reach = self.reach_flat[concat_ranges(first, self.reach_offsets[ids + 1] - first)]
        offsets = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(self.block_offsets[ids + 1] - self.block_offsets[ids], out=offsets[1:])
        return offsets, self.member_positions(reach)

    def _block_at(self, mc_id: int) -> np.ndarray:
        """:meth:`block_positions` of one MC."""
        if self.block_offsets is None:
            raise RuntimeError("call compute_reachability() before querying")
        lo, hi = self.reach_offsets[mc_id], self.reach_offsets[mc_id + 1]
        return self.member_positions(self.reach_flat[lo:hi])

    def reach_block(self, mc_id: int) -> np.ndarray:
        """Rows of MC ``mc_id``'s reach block, gathered from the member
        CSR on each call."""
        return self.member_flat.take(self._block_at(mc_id))

    def mc_kinds(self, min_pts: int) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the DMCs (``|IC| >= min_pts``) and CMCs (the others
        with ``|MC| >= min_pts``) over MC ids; the rest are SMCs."""
        dmc = np.diff(self.ic_offsets) >= min_pts
        return dmc, ~dmc & (np.diff(self.member_offsets) >= min_pts)

    def kind_counts(self, min_pts: int) -> dict[str, int]:
        """DMC/CMC/SMC split of the micro-clusters (paper Fig. 2)."""
        dmc, cmc = (int(np.count_nonzero(k)) for k in self.mc_kinds(min_pts))
        smc = self.n_micro_clusters - dmc - cmc
        return {MCKind.DMC.name: dmc, MCKind.CMC.name: cmc, MCKind.SMC.name: smc}

    @property
    def mcs(self) -> list[MicroCluster]:
        """Frozen per-MC objects over the arrays, for inspection.

        Built on first read and kept until :meth:`compute_reachability`
        changes the reach state; ``reach_ids`` is set once Algorithm 5
        ran, and ``aux_tree`` in ``rtree`` mode.  An MC's ``reach_rows``
        / ``reach_points`` are gathered from this store when read, so
        the view holds no block.  No fit step reads the view."""
        if self._mcs is None:
            pts = self.points
            rows = self.center_rows.tolist()
            self._mcs = [MicroCluster(k, row, pts[row]) for k, row in enumerate(rows)]
            MicroCluster.freeze_batch(
                self._mcs, self.member_flat, self.member_offsets, pts, self.eps, self.metric
            )
            # weak, so the view does not keep its store alive
            blocks = None if self.block_offsets is None else weakref.proxy(self)
            for k, mc in enumerate(self._mcs):
                if self.reach_offsets is not None:
                    mc.reach_ids = self.reach_ids(k)
                mc.reach_store = blocks
                if self._aux_trees is not None:
                    mc.aux_tree = self._aux_trees[k]
        return self._mcs

    def compute_reachability(self) -> None:
        """Compute the reach CSR (Algorithm 5) unless it is set; idempotent.

        Then sets :attr:`block_offsets`, the prefix sums of the reach
        blocks' lengths (the distance work a ``cached``-mode query is
        charged): O(m) integers, while the blocks themselves are gathered
        by their readers."""
        if self.reach_offsets is None:
            centers = np.take(self.points, self.center_rows, axis=0)
            self._set_reach(
                *compute_reachable(centers, self.eps, self.counters, metric=self.metric)
            )
        if self.block_offsets is None:
            size = np.zeros(self.reach_flat.size + 1, dtype=np.int64)
            np.cumsum(self._member_sizes[self.reach_flat], out=size[1:])
            (self.block_offsets,) = _read_only(size[self.reach_offsets])
            self._mcs = None

    # ------------------------------------------------------------------
    # queries

    def _filtered_reach(self, x: np.ndarray, mc_id: int, radius: float) -> list[int]:
        """Reachable MCs of ``mc_id`` whose member-MBR the ball can touch."""
        reach = self.reach_ids(mc_id).tolist()
        if not self.filtration:
            return reach
        out: list[int] = []
        limit = self.metric.threshold(radius)
        for w in reach:
            if self.metric.raw_point_rect(x, self.mbr_low[w], self.mbr_high[w]) <= limit:
                out.append(w)
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
            at = self._block_at(mc_id)
            self.counters.dist_calcs += int(at.shape[0])
            raw = self.metric.raw_to_point(self.member_points.take(at, axis=0), x)
            mask = raw < r_raw
            return self.member_flat.take(at[mask]), raw[mask]
        keep = self._filtered_reach(x, mc_id, radius)
        rows_parts: list[np.ndarray] = []
        sq_parts: list[np.ndarray] = []
        if self.aux_index == "rtree":
            for w in keep:
                hits = self._aux_trees[w].query_ball(x, radius)
                if hits.size:
                    rows_parts.append(hits)
            if not rows_parts:
                return np.empty(0, dtype=np.int64), np.empty(0)
            rows = np.concatenate(rows_parts)
            # recompute distances for the (small) result set; the tree
            # already counted its candidate distance work
            sq = sq_dists_to_point(self.points[rows], x)
            return rows, sq
        bounds = self.member_offsets
        for w in keep:
            lo, hi = bounds[w], bounds[w + 1]
            self.counters.dist_calcs += int(hi - lo)
            raw = self.metric.raw_to_point(self.member_points[lo:hi], x)
            mask = raw < r_raw
            if mask.any():
                rows_parts.append(self.member_flat[lo:hi][mask])
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
        vectorized ``(chunk x |reach block|)`` distance-matrix passes
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
            to ``block_size x |reach block|`` doubles.
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

        # the block's coordinates for the matrices; rows only for hits
        at = self._block_at(mc_id)
        cand_pts = self.member_points.take(at, axis=0)
        per_row_cost = int(at.shape[0])
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
            # (numpy methods, not functions: this runs once per MC of
            # the sampled engine's passes, where call overhead shows)
            hit = (raw_mat < r_raw).ravel().nonzero()[0]
            raw_parts.append(raw_mat.take(hit))
            nbr_parts.append(self.member_flat.take(at.take(hit % per_row_cost)))
            row_ends = hit.searchsorted(
                np.arange(0, (chunk.size + 1) * per_row_cost, per_row_cost)
            )
            count_parts.append(row_ends[1:] - row_ends[:-1])

        counts = _flatten(count_parts, np.int64)
        raw_flat = _flatten(raw_parts, np.float64)
        offsets = np.zeros(rows_arr.size + 1, dtype=np.int64)
        counts.cumsum(out=offsets[1:])
        # |N_eps/2| per row from the already-gathered ε-values (the half
        # ball is a subset of the ε-ball) — no second full-matrix pass
        half_cum = np.zeros(raw_flat.size + 1, dtype=np.int64)
        (raw_flat < h_raw).cumsum(out=half_cum[1:])
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
            return self.reach_block(mc_id)
        keep = self._filtered_reach(x, mc_id, self.eps)
        if not keep:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.member_rows(w) for w in keep])
