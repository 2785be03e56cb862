"""Distance metrics with fast "raw-value" comparison semantics.

μDBSCAN's correctness needs only the triangle inequality (Lemmas 1-3
bound chains of distances), so the algorithm generalises beyond
Euclidean space.  To keep the Euclidean hot path free of square roots,
each metric compares *raw* values against a transformed threshold:

* Euclidean — raw = squared distance, ``threshold(r) = r*r``;
* Manhattan / Chebyshev — raw = the actual distance, ``threshold(r) = r``.

Every caller writes ``metric.raw_to_point(pts, q) < metric.threshold(eps)``
and gets the strict-< semantics of DESIGN.md §6 in any metric.

Index interplay: the first-level R-tree stores ``center ± eps`` boxes
and prunes with *Euclidean* ball-vs-box tests.  A metric ball of radius
``r`` is contained in the Euclidean ball of radius
``r * l2_cover_factor`` (1 for L1/L2 since ``||x||_2 <= ||x||_1``;
``sqrt(d)`` for L∞), so candidate queries scale their radius by that
factor and stay conservative — exactness is preserved, only pruning
strength varies.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "get_metric",
    "EUCLIDEAN",
    "MANHATTAN",
    "CHEBYSHEV",
]


class Metric:
    """Interface: raw distance values + threshold transform."""

    name: str = "abstract"

    def threshold(self, r: float) -> float:
        """Transform a radius so ``raw < threshold(r)`` ⇔ ``dist < r``."""
        raise NotImplementedError

    def raw_to_point(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Raw values from every row of ``points`` to ``q``."""
        raise NotImplementedError

    def raw_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense raw-value matrix between row sets."""
        raise NotImplementedError

    def raw_pairwise_stable(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Like :meth:`raw_pairwise`, but each entry is guaranteed to be
        a function of the two rows only — independent of block shape.

        Contract (the engines' batched kernels; the reachability join
        and serving get the same values pair by pair, from
        ``raw_to_point`` on each difference): row ``i`` of the result is
        bit-identical to ``raw_to_point(b, a[i])``, so a batched sweep
        reaches exactly the same verdicts as a per-point loop, even for
        pairs engineered onto the ε boundary.
        Metrics whose ``raw_pairwise`` is already a per-pair direct form
        (L1, L∞ broadcasting) inherit this default with row chunking to
        bound the broadcast temporary; Euclidean overrides it because
        its BLAS expansion trick is shape-dependent in the last ulp."""
        from repro.geometry.distance import _STABLE_TEMP_ELEMS

        a2 = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b2 = np.atleast_2d(np.asarray(b, dtype=np.float64))
        per_row = max(1, b2.shape[0] * b2.shape[1])
        if a2.shape[0] * per_row <= _STABLE_TEMP_ELEMS:
            return self.raw_pairwise(a2, b2)
        chunk = max(1, _STABLE_TEMP_ELEMS // per_row)
        return np.concatenate(
            [
                self.raw_pairwise(a2[start : start + chunk], b2)
                for start in range(0, a2.shape[0], chunk)
            ]
        )

    def raw_point_rect(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
        """Raw value of the minimum distance from ``q`` to the box."""
        raise NotImplementedError

    def l2_cover_factor(self, dim: int) -> float:
        """``c`` such that the metric ball of radius r fits inside the
        Euclidean ball of radius ``c * r`` (used for index pruning)."""
        raise NotImplementedError

    def dist_from_raw(self, raw: np.ndarray | float):
        """Convert raw comparison values back to true distances (the
        identity for metrics whose raw values *are* distances)."""
        return raw

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Metric {self.name}>"


class EuclideanMetric(Metric):
    """L2, compared in squared space (no square roots on the hot path)."""

    name = "euclidean"

    def threshold(self, r: float) -> float:
        return r * r

    def raw_to_point(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        from repro.geometry.distance import sq_dists_to_point

        return sq_dists_to_point(points, q)

    def raw_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        from repro.geometry.distance import pairwise_sq_dists

        return pairwise_sq_dists(a, b)

    def raw_pairwise_stable(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        from repro.geometry.distance import pairwise_sq_dists_stable

        return pairwise_sq_dists_stable(a, b)

    def raw_point_rect(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
        from repro.geometry.regions import point_rect_sq_dist

        return point_rect_sq_dist(q, low, high)

    def l2_cover_factor(self, dim: int) -> float:
        return 1.0

    def dist_from_raw(self, raw: np.ndarray | float):
        return np.sqrt(raw)


class ManhattanMetric(Metric):
    """L1 — raw values are true distances."""

    name = "manhattan"

    def threshold(self, r: float) -> float:
        return r

    def raw_to_point(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        return np.abs(pts - np.asarray(q, dtype=np.float64)).sum(axis=1)

    def raw_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a2 = np.asarray(a, dtype=np.float64)
        b2 = np.asarray(b, dtype=np.float64)
        return np.abs(a2[:, None, :] - b2[None, :, :]).sum(axis=2)

    def raw_point_rect(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
        if np.any(low > high):
            return float("inf")
        qv = np.asarray(q, dtype=np.float64)
        return float(np.abs(qv - np.clip(qv, low, high)).sum())

    def l2_cover_factor(self, dim: int) -> float:
        return 1.0  # ||x||_2 <= ||x||_1: the L1 ball sits inside the L2 ball


class ChebyshevMetric(Metric):
    """L∞ — raw values are true distances."""

    name = "chebyshev"

    def threshold(self, r: float) -> float:
        return r

    def raw_to_point(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        return np.abs(pts - np.asarray(q, dtype=np.float64)).max(axis=1)

    def raw_pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a2 = np.asarray(a, dtype=np.float64)
        b2 = np.asarray(b, dtype=np.float64)
        return np.abs(a2[:, None, :] - b2[None, :, :]).max(axis=2)

    def raw_point_rect(self, q: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
        if np.any(low > high):
            return float("inf")
        qv = np.asarray(q, dtype=np.float64)
        return float(np.abs(qv - np.clip(qv, low, high)).max())

    def l2_cover_factor(self, dim: int) -> float:
        return float(np.sqrt(dim))  # ||x||_2 <= sqrt(d) ||x||_inf


EUCLIDEAN = EuclideanMetric()
MANHATTAN = ManhattanMetric()
CHEBYSHEV = ChebyshevMetric()

_BY_NAME = {m.name: m for m in (EUCLIDEAN, MANHATTAN, CHEBYSHEV)}
_ALIASES = {"l2": EUCLIDEAN, "l1": MANHATTAN, "linf": CHEBYSHEV, "cityblock": MANHATTAN}


def get_metric(metric: str | Metric) -> Metric:
    """Resolve a metric by name (or pass a Metric instance through)."""
    if isinstance(metric, Metric):
        return metric
    key = str(metric).lower()
    found = _BY_NAME.get(key) or _ALIASES.get(key)
    if found is None:
        options = sorted(set(_BY_NAME) | set(_ALIASES))
        raise ValueError(f"unknown metric {metric!r}; choose from {options}")
    return found
