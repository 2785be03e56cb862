"""The micro-cluster record and its classification.

Definitions (paper §IV-B, Fig. 2) with this repo's strict-inequality
semantics (DESIGN.md §6):

* ``MC(p)``: center point ``p`` plus every assigned point ``q`` with
  ``dist(q, p) < eps``.  The center is a member of its own MC.
* inner circle ``IC``: members with ``dist(q, p) < eps / 2`` — the
  center included (distance 0), so all IC pairwise distances are
  strictly below ``eps`` and Lemma 1 holds with no boundary cases.
* **DMC** (dense): ``|IC| >= MinPts``  → every IC point is core
  without a neighborhood query (Lemma 1).
* **CMC** (core): ``|MC| >= MinPts``   → the center is core (Lemma 2).
* **SMC** (sparse): everything else.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric

__all__ = ["MicroCluster", "MCKind", "freeze_arrays"]


class MCKind(enum.Enum):
    """Micro-cluster classification (paper Fig. 2)."""

    DMC = "dense"
    CMC = "core"
    SMC = "sparse"


class MicroCluster:
    """One micro-cluster.

    Built incrementally (members appended as Algorithm 3 assigns
    points), then *frozen* once construction finishes — freezing
    materialises the member-index array, a contiguous copy of the member
    coordinates (for vectorized ε-queries), the tight member MBR used in
    per-point reachability filtration, and the inner-circle rows, all
    with :func:`freeze_arrays`.  The production pipeline keeps these as
    one set of arrays on :class:`~repro.microcluster.murtree.MuRTree`;
    objects are grown only by the reference scan builder, and made by
    ``MuRTree.mcs`` for inspection.

    Attributes
    ----------
    mc_id:
        Dense id of this MC (row in the owning ``MuRTree``'s list).
    center_row:
        Global dataset index of the center point.
    center:
        The center's coordinate vector (view into the dataset).
    """

    __slots__ = (
        "mc_id",
        "center_row",
        "center",
        "_pending_rows",
        "member_rows",
        "member_points",
        "mbr_low",
        "mbr_high",
        "ic_rows",
        "reach_ids",
        "reach_rows",
        "_reach_points",
        "_dataset",
        "aux_tree",
    )

    def __init__(self, mc_id: int, center_row: int, center: np.ndarray) -> None:
        self.mc_id = mc_id
        self.center_row = int(center_row)
        self.center = np.asarray(center, dtype=np.float64)
        self._pending_rows: list[int] | None = [int(center_row)]
        self.member_rows: np.ndarray | None = None
        self.member_points: np.ndarray | None = None
        self.mbr_low: np.ndarray | None = None
        self.mbr_high: np.ndarray | None = None
        self.ic_rows: np.ndarray | None = None
        self.reach_ids: np.ndarray | None = None
        #: concatenation of the reachable MCs' member rows (aux_index=
        #: "cached" — one vectorized scan per ε-query); its coordinates
        #: are copied into ``reach_points`` on first use
        self.reach_rows: np.ndarray | None = None
        self._reach_points: np.ndarray | None = None
        self._dataset: np.ndarray | None = None
        self.aux_tree = None  # PointRTree when aux_index="rtree"

    # ------------------------------------------------------------------
    # construction phase

    def add_member(self, row: int) -> None:
        """Assign dataset point ``row`` to this MC (pre-freeze only)."""
        if self._pending_rows is None:
            raise RuntimeError("cannot add members to a frozen MicroCluster")
        self._pending_rows.append(int(row))

    @property
    def frozen(self) -> bool:
        return self._pending_rows is None

    def freeze(self, points: np.ndarray, eps: float, metric: Metric = EUCLIDEAN) -> None:
        """Finalize membership and precompute query-side structures."""
        if self._pending_rows is None:
            raise RuntimeError("MicroCluster already frozen")
        rows = np.asarray(self._pending_rows, dtype=np.int64)
        MicroCluster.freeze_batch([self], rows, [0, rows.shape[0]], points, eps, metric)

    @staticmethod
    def freeze_batch(
        mcs: list["MicroCluster"],
        member_rows: np.ndarray,
        bounds: np.ndarray | list[int],
        points: np.ndarray,
        eps: float,
        metric: Metric = EUCLIDEAN,
    ) -> None:
        """Freeze every MC of ``mcs`` in one pass, with the members of
        ``mcs[i]`` taken from ``member_rows[bounds[i]:bounds[i + 1]]``
        (led by its center, in assignment order) instead of its pending
        rows.  Member rows and coordinates become views into one array
        each; every frozen structure equals a one-by-one :meth:`freeze`.
        """
        rows = np.array(member_rows, dtype=np.int64)  # a copy the MCs own
        centers = [mc.center_row for mc in mcs]
        member_points, lows, highs, ic_bounds, ic_rows = freeze_arrays(
            points, centers, bounds, rows, eps, metric
        )
        bounds = np.asarray(bounds).tolist()
        ic_bounds = ic_bounds.tolist()
        for i, mc in enumerate(mcs):
            lo, hi = bounds[i], bounds[i + 1]
            mc._pending_rows = None
            mc.member_rows, mc.member_points = rows[lo:hi], member_points[lo:hi]
            mc.mbr_low, mc.mbr_high = lows[i], highs[i]
            mc.ic_rows = ic_rows[ic_bounds[i] : ic_bounds[i + 1]]

    # ------------------------------------------------------------------
    # reach block (aux_index="cached")

    def set_reach_rows(
        self,
        rows: np.ndarray,
        points: np.ndarray,
        coords: np.ndarray | None = None,
    ) -> None:
        """Attach the reach block's rows of the dataset ``points``, with
        their coordinates ``coords`` when the caller gathered them; else
        they are copied when :attr:`reach_points` is first read."""
        self.reach_rows = rows
        self._dataset = points
        self._reach_points = coords

    @property
    def reach_points(self) -> np.ndarray | None:
        """Coordinates of :attr:`reach_rows`, a private contiguous block
        made on first read (``None`` until the rows are attached)."""
        if self._reach_points is None and self.reach_rows is not None:
            self._reach_points = np.take(self._dataset, self.reach_rows, axis=0)
        return self._reach_points

    # ------------------------------------------------------------------
    # classification (valid after freeze)

    def __len__(self) -> int:
        if self.member_rows is not None:
            return int(self.member_rows.shape[0])
        assert self._pending_rows is not None
        return len(self._pending_rows)

    @property
    def ic_size(self) -> int:
        """|inner circle| (center included)."""
        if self.ic_rows is None:
            raise RuntimeError("inner circle is only available after freeze()")
        return int(self.ic_rows.shape[0])

    def kind(self, min_pts: int) -> MCKind:
        """DMC / CMC / SMC classification for the given ``MinPts``."""
        if self.ic_rows is None:
            raise RuntimeError("classification is only available after freeze()")
        if self.ic_size >= min_pts:
            return MCKind.DMC
        if len(self) >= min_pts:
            return MCKind.CMC
        return MCKind.SMC


def freeze_arrays(
    points: np.ndarray,
    center_rows: np.ndarray,
    member_offsets: np.ndarray,
    member_flat: np.ndarray,
    eps: float,
    metric: Metric = EUCLIDEAN,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The query-side arrays of every MC, derived from its member CSR.

    MC ``i``'s members are ``member_flat[member_offsets[i]:member_offsets[i
    + 1]]``, led by its center ``center_rows[i]``.  Returns
    ``(member_points, mbr_low, mbr_high, ic_offsets, ic_flat)``: the
    member coordinates in member order, each MC's tight member MBR as
    ``(m, d)`` arrays, and the inner circle (members strictly within
    ``eps / 2`` of the center, in member order) as a CSR.
    """
    pts = np.asarray(points, dtype=np.float64)
    bounds = np.asarray(member_offsets, dtype=np.int64)
    rows = np.asarray(member_flat, dtype=np.int64)
    starts = bounds[:-1]
    if bounds[-1] != rows.shape[0] or not np.array_equal(rows[starts], center_rows):
        raise ValueError("each MC's member_rows must start with its center_row")
    member_points = np.take(pts, rows, axis=0)
    m, dim = starts.shape[0], pts.shape[1]
    if m == 0:
        empty = np.empty((0, dim))
        return member_points, empty, empty.copy(), np.zeros(1, np.int64), rows[:0]
    lows = np.minimum.reduceat(member_points, starts, axis=0)
    highs = np.maximum.reduceat(member_points, starts, axis=0)
    # raw_to_point(member_points, center) row by row: member - center
    # is formed first, then reduced exactly as there
    from_center = member_points - member_points[np.repeat(starts, np.diff(bounds))]
    raw = metric.raw_to_point(from_center, np.zeros(dim))
    in_ic = raw < metric.threshold(eps * 0.5)
    ic_offsets = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(in_ic, out=ic_offsets[1:])
    return member_points, lows, highs, ic_offsets[bounds], rows[in_ic]
