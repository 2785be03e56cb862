"""The μDBSCAN driver — Algorithm 2.

Orchestrates the four steps and reports per-phase timings under the
names of the paper's Table III:

1. ``tree_construction``          — Algorithm 3 + AuxR structures,
2. ``finding_reachable_groups``   — Algorithm 5,
3. ``clustering``                 — Algorithms 4 and 6,
4. ``post_processing``            — Algorithms 7 and 8.

Exactness (Theorem 1) is asserted against brute-force DBSCAN by the
test suite; the counters record the query savings the paper reports in
Table II.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro._compat import deprecated_alias
from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.core.postprocess import postprocess_core, postprocess_noise
from repro.core.process_mcs import process_micro_clusters
from repro.core.remaining import process_remaining_points
from repro.core.result import ClusteringResult
from repro.core.state import MuDBSCANState
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.builder import DEFAULT_BUILDER_BLOCK_SIZE
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE, MuRTree
from repro.observability.adapters import publish_run
from repro.observability.profiler import PhaseProfiler, current_profiler, maybe_profile
from repro.observability.registry import get_registry
from repro.observability.tracing import Tracer, maybe_span

__all__ = ["mu_dbscan", "run_mu_dbscan_state", "MuDBSCAN"]


def run_mu_dbscan_state(
    points: np.ndarray,
    params: DBSCANParams,
    *,
    aux_index: str = "cached",
    filtration: bool = True,
    defer_2eps: bool = True,
    dynamic_wndq: bool = True,
    block_size: int = DEFAULT_BLOCK_SIZE,
    builder_block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
    metric: str | Metric = EUCLIDEAN,
    counters: Counters | None = None,
    timers: PhaseTimer | None = None,
    process_mask: np.ndarray | None = None,
    state_factory=MuDBSCANState,
    progress_cb=None,
) -> tuple[MuDBSCANState, PhaseTimer]:
    """Run μDBSCAN and return the raw state (flags + union-find).

    This is the entry point the distributed driver uses: the local step
    of μDBSCAN-D needs the core flags and the union-find of the
    local-plus-halo point set, not just final labels.  ``process_mask``
    restricts Algorithm 6 to the masked (owned) rows, and
    ``state_factory`` lets μDBSCAN-D substitute its ownership-aware
    state subclass.

    ``block_size`` bounds the distance blocks of Algorithm 6's
    MC-batched neighborhood engine (see ``repro.core.remaining``).

    ``progress_cb(consumed, eligible)`` is forwarded to Algorithm 6's
    consumption loop — distributed ranks hang their monitoring
    heartbeats on it.

    Each phase also passes through :func:`maybe_profile`, so with a
    profiler active on this thread (see
    :class:`~repro.observability.profiler.PhaseProfiler`) the run
    yields a per-phase memory split-up; off, the hook is one
    thread-local read per phase.
    """
    counters = counters if counters is not None else Counters()
    timers = timers if timers is not None else PhaseTimer()

    with timers.phase("tree_construction"), maybe_span(
        "tree_construction"
    ) as span, maybe_profile("tree_construction", span=span):
        murtree = MuRTree(
            points,
            params.eps,
            aux_index=aux_index,
            filtration=filtration,
            defer_2eps=defer_2eps,
            counters=counters,
            metric=metric,
            builder_block_size=builder_block_size,
        )
    with timers.phase("finding_reachable_groups"), maybe_span(
        "finding_reachable_groups"
    ) as span, maybe_profile("finding_reachable_groups", span=span):
        murtree.compute_reachability()

    state = state_factory(murtree, params, counters)
    with timers.phase("clustering"), maybe_span("clustering") as span, maybe_profile(
        "clustering", span=span
    ):
        process_micro_clusters(state)
        process_remaining_points(
            state,
            dynamic_wndq=dynamic_wndq,
            process_mask=process_mask,
            block_size=block_size,
            progress_cb=progress_cb,
        )
    with timers.phase("post_processing"), maybe_span(
        "post_processing"
    ) as span, maybe_profile("post_processing", span=span):
        postprocess_core(state)
        postprocess_noise(state)

    eligible = state.n if process_mask is None else int(np.count_nonzero(process_mask))
    counters.queries_saved += eligible - counters.queries_run
    return state, timers


@deprecated_alias(minpts="min_pts", min_samples="min_pts")
def mu_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    aux_index: str = "cached",
    filtration: bool = True,
    defer_2eps: bool = True,
    dynamic_wndq: bool = True,
    block_size: int = DEFAULT_BLOCK_SIZE,
    builder_block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
    metric: str | Metric = EUCLIDEAN,
    timers: PhaseTimer | None = None,
    tracer: Tracer | None = None,
    profiler: PhaseProfiler | None = None,
) -> ClusteringResult:
    """Cluster ``points`` with μDBSCAN (exact DBSCAN semantics).

    Parameters
    ----------
    points:
        ``(n, d)`` float array.
    eps, min_pts:
        DBSCAN density parameters (strict-< ε, self counted — see
        DESIGN.md §6).
    aux_index, filtration, defer_2eps, dynamic_wndq:
        Design knobs; the defaults reproduce the paper's algorithm, the
        alternatives are the DESIGN.md §5 ablations.
    builder_block_size:
        Rows per sweep block of the vectorized grid-hash builder
        (Algorithm 3; docs/ALGORITHM.md, "Grid-hash builder").  Results
        and work counters do not depend on it.
    block_size:
        Rows per transient distance matrix of the MC-batched
        neighborhood engine in the clustering phase (``cached`` aux
        index; docs/TUNING.md).  Results and work counters do not
        depend on it.
    timers:
        Optional externally-constructed :class:`PhaseTimer` — pass one
        built on ``time.thread_time`` to make a sequential run directly
        comparable to μDBSCAN-D's per-rank CPU timings.
    tracer:
        Optional :class:`~repro.observability.tracing.Tracer`; when
        given (or when one is already active on this thread) the run
        produces a ``fit`` span with the four phases (and per-MC batch
        spans) nested under it.  Work counters and phase timings are
        also published to the active
        :class:`~repro.observability.registry.MetricsRegistry` (the
        default registry is disabled, so this costs nothing unless one
        is installed).
    profiler:
        Optional :class:`~repro.observability.profiler.PhaseProfiler`;
        when given (or when one is already active on this thread) each
        phase records its tracemalloc delta/peak and RSS — the Table
        IV-style memory split-up — into the profiler and, when a tracer
        runs alongside, onto the phase spans.  The profile also lands
        in ``extras["memory_profile"]``.

    Returns
    -------
    :class:`~repro.core.result.ClusteringResult` with dense labels
    (``-1`` = noise), the core mask, work counters (query savings) and
    per-phase timings.
    """
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    counters = Counters()
    pts = np.asarray(points)
    activation = tracer.activate() if tracer is not None else contextlib.nullcontext()
    profiler = profiler if profiler is not None else current_profiler()
    profiling = (
        profiler.activate() if profiler is not None else contextlib.nullcontext()
    )
    with activation, profiling, maybe_span(
        "fit", n=int(pts.shape[0]), eps=eps, min_pts=min_pts, engine="exact"
    ):
        state, timers = run_mu_dbscan_state(
            pts,
            params,
            aux_index=aux_index,
            filtration=filtration,
            defer_2eps=defer_2eps,
            dynamic_wndq=dynamic_wndq,
            block_size=block_size,
            builder_block_size=builder_block_size,
            metric=metric,
            counters=counters,
            timers=timers,
        )
    publish_run(get_registry(), counters, timers, algorithm="mu_dbscan")
    labels = state.uf.labels(noise_mask=state.final_noise_mask())
    extras = {
        ExtraKeys.N_MICRO_CLUSTERS: state.murtree.n_micro_clusters,
        ExtraKeys.AVG_MC_SIZE: state.murtree.avg_mc_size,
        ExtraKeys.N_WNDQ_CORE: len(state.wndq_corelist),
        ExtraKeys.MC_KIND_COUNTS: state.murtree.kind_counts(params.min_pts),
        ExtraKeys.METRIC: state.murtree.metric.name,
    }
    if profiler is not None:
        extras[ExtraKeys.MEMORY_PROFILE] = profiler.as_dict()
    return ClusteringResult(
        labels=labels,
        core_mask=state.core.copy(),
        params=params,
        algorithm="mu_dbscan",
        counters=counters,
        timers=timers,
        extras=extras,
    )


class MuDBSCAN:
    """Estimator-style wrapper around :func:`mu_dbscan`.

    Mirrors the scikit-learn DBSCAN surface (``fit`` / ``fit_predict``
    plus ``labels_`` and ``core_sample_mask_``) so downstream users can
    drop it into existing pipelines.  Configuration is introspectable
    sklearn-style: ``get_params()`` returns a dict that round-trips
    through ``MuDBSCAN(**params)``, and ``repr()`` shows the
    non-default settings.

    ``engine`` selects the clustering engine (``"exact"`` default,
    ``"sampled"``, ``"summary"`` — docs/ENGINES.md); ``engine_options``
    carries the engine's own knobs (e.g. ``{"sample_fraction": 0.3}``).
    The ablation switches (``filtration``, ``defer_2eps``,
    ``dynamic_wndq``) only apply to the exact engine's pipeline.
    """

    #: constructor keywords in declaration order (get_params/__repr__)
    _PARAM_NAMES = (
        "eps",
        "min_pts",
        "aux_index",
        "filtration",
        "defer_2eps",
        "dynamic_wndq",
        "block_size",
        "builder_block_size",
        "metric",
        "engine",
        "engine_options",
    )

    def __init__(
        self,
        eps: float,
        min_pts: int,
        *,
        aux_index: str = "cached",
        filtration: bool = True,
        defer_2eps: bool = True,
        dynamic_wndq: bool = True,
        block_size: int = DEFAULT_BLOCK_SIZE,
        builder_block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
        metric: str | Metric = EUCLIDEAN,
        engine: str = "exact",
        engine_options: dict | None = None,
    ) -> None:
        # validate eagerly so misuse fails at construction
        self.params = DBSCANParams(eps=eps, min_pts=min_pts)
        self.aux_index = aux_index
        self.filtration = filtration
        self.defer_2eps = defer_2eps
        self.dynamic_wndq = dynamic_wndq
        self.block_size = block_size
        self.builder_block_size = builder_block_size
        self.metric = metric
        self.engine = engine
        self.engine_options = dict(engine_options) if engine_options else {}
        if engine != "exact":
            # resolve eagerly so an unknown engine or a bad option
            # fails at construction, like the parameter validation
            from repro.engines import resolve_engine

            resolve_engine(engine, dict(self.engine_options))
        self.result_: ClusteringResult | None = None

    def get_params(self) -> dict:
        """Constructor configuration; ``MuDBSCAN(**params)`` round-trips."""
        out = {
            name: getattr(self, name)
            for name in self._PARAM_NAMES
            if name not in ("eps", "min_pts")
        }
        out["eps"] = self.params.eps
        out["min_pts"] = self.params.min_pts
        out["engine_options"] = dict(self.engine_options)
        return {name: out[name] for name in self._PARAM_NAMES}

    def __repr__(self) -> str:
        import inspect

        defaults = {
            name: p.default
            for name, p in inspect.signature(type(self).__init__).parameters.items()
        }
        params = self.get_params()
        parts = []
        for name in self._PARAM_NAMES:
            value = params[name]
            default = defaults.get(name, inspect.Parameter.empty)
            if name in ("eps", "min_pts") or value != (
                {} if default is None else default
            ):
                parts.append(f"{name}={value!r}")
        return f"{type(self).__name__}({', '.join(parts)})"

    def fit(self, points: np.ndarray) -> "MuDBSCAN":
        """Cluster ``points``; results land in ``labels_`` etc."""
        if self.engine != "exact":
            from repro.engines import resolve_engine

            eng, _ = resolve_engine(self.engine, dict(self.engine_options))
            self.result_ = eng.fit(
                points,
                self.params.eps,
                self.params.min_pts,
                aux_index=self.aux_index,
                block_size=self.block_size,
                builder_block_size=self.builder_block_size,
                metric=self.metric,
            )
            return self
        self.result_ = mu_dbscan(
            points,
            self.params.eps,
            self.params.min_pts,
            aux_index=self.aux_index,
            filtration=self.filtration,
            defer_2eps=self.defer_2eps,
            dynamic_wndq=self.dynamic_wndq,
            block_size=self.block_size,
            builder_block_size=self.builder_block_size,
            metric=self.metric,
        )
        return self

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return the labels."""
        return self.fit(points).labels_

    def _require_fitted(self) -> ClusteringResult:
        if self.result_ is None:
            raise RuntimeError("call fit() before reading results")
        return self.result_

    @property
    def labels_(self) -> np.ndarray:
        return self._require_fitted().labels

    @property
    def core_sample_mask_(self) -> np.ndarray:
        return self._require_fitted().core_mask

    @property
    def n_clusters_(self) -> int:
        return self._require_fitted().n_clusters
