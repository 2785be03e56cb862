"""The stable public surface of the library — five verbs.

Everything a user of the reproduction needs, importable from the
package root::

    from repro import fit, fit_distributed, load_model, stream, suggest_eps

    eps = suggest_eps(points, min_pts=60)
    result = fit(points, eps=eps, min_pts=60)
    result = fit_distributed(points, eps=eps, min_pts=60, n_ranks=4)
    model = load_model("model.mudb")

    clusterer = stream(eps=eps, min_pts=60, window=100_000)
    clusterer.partial_fit(batch)          # exact, incremental
    labels = clusterer.labels_

The facade commits to the unified parameter vocabulary (``eps``,
``min_pts``, ``n_ranks``, ``backend``) documented in docs/API.md.
Legacy spellings (``minpts``, ``min_samples``, ``nranks``,
``num_ranks``) still work everywhere but raise
:class:`~repro._compat.ReproDeprecationWarning` once per process.

Deep imports (``repro.core.mudbscan.mu_dbscan``,
``repro.distributed.mudbscan_d.mu_dbscan_d``,
``repro.serving.model.load_model`` …) remain supported — the facade
adds names, it removes none.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro._compat import deprecated_alias
from repro.core.mudbscan import mu_dbscan
from repro.core.result import ClusteringResult
from repro.distributed.mudbscan_d import mu_dbscan_d
from repro.neighbors import suggest_eps
from repro.serving.model import FittedModel, load_model
from repro.streaming.incremental import StreamingMuDBSCAN

__all__ = ["fit", "fit_distributed", "load_model", "stream", "suggest_eps"]


@deprecated_alias(minpts="min_pts", min_samples="min_pts")
def fit(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    engine: str | Any = "exact",
    **opts: Any,
) -> ClusteringResult:
    """Cluster ``points`` with the selected clustering engine.

    ``engine`` picks the exactness tier (docs/ENGINES.md):

    * ``"exact"`` (default) — μDBSCAN, exact DBSCAN semantics.  A
      direct alias of :func:`repro.core.mudbscan.mu_dbscan`; every
      keyword it accepts (``metric``, ``block_size``,
      ``builder_block_size``, ``tracer``, the ablation switches …)
      passes through unchanged.
    * ``"sampled"`` — DBSCAN++-style sampled candidate cores.  Engine
      options ``sample_fraction`` / ``selection`` / ``seed`` are
      extracted from the keywords; the shared knobs (``metric``,
      ``block_size``, ``builder_block_size``, ``aux_index``,
      ``tracer``) pass through.
    * ``"summary"`` — clustering over micro-cluster summaries; engine
      option ``link_factor``, same shared knobs.

    A pre-configured :class:`repro.engines.ClusteringEngine` instance
    is also accepted.  Approximate engines tag their result with
    ``extras["engine"]`` / ``extras["engine_options"]`` provenance;
    quality versus the exact engine is tracked by
    :mod:`repro.validation.quality`.
    """
    if engine == "exact":
        # the unchanged exact path — bit-identical to mu_dbscan()
        return mu_dbscan(points, eps, min_pts, **opts)
    from repro.engines import resolve_engine

    eng, fit_opts = resolve_engine(engine, opts)
    return eng.fit(points, eps, min_pts, **fit_opts)


@deprecated_alias(minpts="min_pts", min_samples="min_pts", nranks="n_ranks", num_ranks="n_ranks")
def fit_distributed(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    n_ranks: int,
    **opts: Any,
) -> ClusteringResult:
    """Cluster ``points`` with μDBSCAN-D on ``n_ranks`` ranks.

    A direct alias of :func:`repro.distributed.mudbscan_d.mu_dbscan_d`;
    ``backend`` ("thread" / "process"), ``sample_size``, ``seed``,
    ``tracer`` and the local μDBSCAN knobs pass through unchanged.
    """
    return mu_dbscan_d(points, eps, min_pts, n_ranks, **opts)


@deprecated_alias(minpts="min_pts", min_samples="min_pts")
def stream(
    eps: float,
    min_pts: int,
    *,
    engine: str = "streaming",
    **opts: Any,
) -> StreamingMuDBSCAN:
    """Create an incremental clusterer for a live data stream.

    Returns a :class:`~repro.streaming.StreamingMuDBSCAN` with the
    sklearn-style maintenance surface: ``partial_fit(X)`` to insert,
    ``delete(ids)`` / ``expire(n)`` to remove, ``labels_`` / ``ids_`` /
    ``core_sample_mask_`` to read the current exact clustering, and
    ``to_fitted_model()`` to snapshot for serving.  The clustering is
    exact after every update — identical (up to relabeling) to
    :func:`fit` on the live window.

    Shares the batch vocabulary: ``metric`` and ``builder_block_size``
    pass through, plus the streaming knobs ``window``,
    ``compact_every``, ``compact_dirty_fraction`` (docs/STREAMING.md).  Only
    ``engine="streaming"`` exists — the keyword is accepted for
    symmetry with :func:`fit` and reserved for future tiers.
    """
    if engine != "streaming":
        raise ValueError(
            f"stream() supports engine='streaming' only, got {engine!r}"
        )
    return StreamingMuDBSCAN(eps, min_pts, **opts)


# load_model and suggest_eps need no wrapper — their canonical
# signatures already use the unified vocabulary; re-exported here so
# the four facade verbs live in one module.
_ = (load_model, suggest_eps, FittedModel)
