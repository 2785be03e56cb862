"""Brute-force answers every output is checked against, cached on disk.

* Fits are checked with ``check_exact`` against ``brute_dbscan`` (about
  10 s at 20k points), cached per input fingerprint.
* Served labels are checked against ``brute_predict``.  A query's
  answer depends only on stored points strictly within ε of it, so the
  oracle runs ``brute_predict`` on groups of ``GROUP`` nearby queries
  (sorted by ε-grid cell) and the union of the stored points a ``scipy``
  k-d tree finds within ε(1 + 1e-6) of any of them — a superset of
  every point that can matter for each query, in row order so ties
  break alike.  Each call cross-checks a sample against
  ``brute_predict`` over all stored points.  Answers are cached per
  (model, query pool).

All of it runs outside the timed regions.
"""

from __future__ import annotations

import io

import numpy as np

from common import write_atomic, work_dir

SAMPLE = 64
GROUP = 64


def _cached(name: str, compute) -> dict[str, np.ndarray]:
    path = work_dir("oracle") / f"{name}.npz"
    if path.is_file():
        with np.load(path) as z:
            return dict(z)
    arrays = compute()
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    write_atomic(path, buf.getvalue())
    return arrays


def dbscan_reference(train: np.ndarray, eps: float, min_pts: int, fp: str):
    from repro import ClusteringResult, DBSCANParams, brute_dbscan

    def compute():
        ref = brute_dbscan(train, eps, min_pts)
        return {"labels": ref.labels, "core": ref.core_mask}

    z = _cached(f"dbscan-{fp}", compute)
    return ClusteringResult(
        z["labels"], z["core"], DBSCANParams(eps=eps, min_pts=min_pts), "brute_dbscan"
    )


def fit_mismatch(labels, core, reference, train) -> str | None:
    """``None`` when the fit is exact against the oracle, else why not."""
    from repro import ClusteringResult, check_exact

    cand = ClusteringResult(labels, core, reference.params, "candidate")
    report = check_exact(cand, reference, points=train)
    return None if report.ok else str(report)


def predict_labels(points: np.ndarray, labels: np.ndarray, core: np.ndarray,
                   eps: float, min_pts: int, queries: np.ndarray, key: str) -> np.ndarray:
    """Oracle labels, one per row of ``queries``."""
    from scipy.spatial import cKDTree

    from repro.serving.predict import brute_predict

    def compute():
        near = cKDTree(points).query_ball_point(queries, r=eps * (1.0 + 1e-6))
        cells = np.floor(queries / eps).astype(np.int64)
        order = np.lexsort(cells.T[::-1])
        out = np.empty(queries.shape[0], dtype=np.int64)
        for start in range(0, order.size, GROUP):
            group = order[start:start + GROUP]
            rows = np.unique(np.concatenate(
                [np.asarray(near[i], dtype=np.int64) for i in group]
            ))
            out[group] = brute_predict(
                points[rows], labels[rows], core[rows], eps, min_pts, queries[group]
            ).labels
        full = brute_predict(points, labels, core, eps, min_pts, queries[:SAMPLE]).labels
        if not np.array_equal(full, out[:SAMPLE]):
            raise RuntimeError("candidate-set oracle disagrees with full brute_predict")
        return {"labels": out}

    return _cached(f"predict-{key}", compute)["labels"]
