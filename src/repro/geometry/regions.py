"""Region predicates used for search-space pruning.

The paper prunes in two geometrically distinct ways:

* ``reg_eps(p)`` / ``reg_2eps(p)`` — the axis-aligned hypercube of
  half-width ``eps`` (resp. ``2 eps``) centered at ``p``; Algorithm 3
  descends into R-tree subtrees whose MBR overlaps this cube.
* ball-vs-MBR tests — whether the *sphere* of radius ``eps`` around
  ``p`` can contain any point of an MBR, which is the tight test
  (distance from ``p`` to the rectangle ≤ ``eps``).

Both are provided; the cube test is cheaper, the ball test tighter.
The R-tree's leaf test is :func:`sphere_intersects_rects`; Algorithm 5's
grid join (:mod:`repro.microcluster.reachability`) runs the same test on
flat (MC, candidate) pairs, with the same verdict bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eps_extended_rect",
    "point_rect_sq_dist",
    "sphere_intersects_rect",
    "sphere_intersects_rects",
    "rect_overlaps_rects",
]


def eps_extended_rect(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The hypercube ``[p - eps, p + eps]`` (the paper's ``reg_eps(p)``)."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    pv = np.asarray(p, dtype=np.float64)
    return pv - eps, pv + eps


def point_rect_sq_dist(p: np.ndarray, low: np.ndarray, high: np.ndarray) -> float:
    """Squared distance from point ``p`` to the closed rectangle ``[low, high]``.

    Zero when ``p`` is inside.  Returns ``+inf`` for the empty MBR so the
    sphere test below is automatically false against empty nodes.
    """
    if np.any(low > high):
        return float("inf")
    pv = np.asarray(p, dtype=np.float64)
    clamped = np.clip(pv, low, high)
    diff = pv - clamped
    return float(np.dot(diff, diff))


def sphere_intersects_rect(
    p: np.ndarray, eps: float, low: np.ndarray, high: np.ndarray
) -> bool:
    """True when the open ball ``B(p, eps)`` meets the rectangle.

    Uses ``<=`` on the squared boundary distance: a rectangle touching
    the sphere is kept (conservative pruning, exact results downstream).
    """
    return point_rect_sq_dist(p, low, high) <= eps * eps


def sphere_intersects_rects(
    p: np.ndarray, eps: float, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """Batched :func:`sphere_intersects_rect` over ``(k, d)`` MBR stacks."""
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    pv = np.asarray(p, dtype=np.float64)
    clamped = np.clip(pv, lows, highs)
    diff = pv - clamped
    sq = np.einsum("ij,ij->i", diff, diff)
    # Empty MBRs produce low > high; clip() then yields garbage, so mask
    # them out explicitly.
    nonempty = np.all(lows <= highs, axis=1)
    return nonempty & (sq <= eps * eps)


def rect_overlaps_rects(
    low: np.ndarray, high: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """Batched closed rectangle-overlap mask (cube pruning path)."""
    lows = np.atleast_2d(np.asarray(lows, dtype=np.float64))
    highs = np.atleast_2d(np.asarray(highs, dtype=np.float64))
    return np.all((lows <= high) & (highs >= low), axis=1)
