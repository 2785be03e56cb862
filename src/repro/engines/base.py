"""The :class:`ClusteringEngine` contract and the engine registry.

An *engine* is one strategy for turning ``(points, eps, min_pts)`` into
a :class:`~repro.core.result.ClusteringResult` on top of the shared
micro-cluster machinery.  Three ship with the library (see
docs/ENGINES.md for selection guidance):

* ``exact``   — the full μDBSCAN pipeline (Algorithms 2–8), exact
  DBSCAN semantics.  The default everywhere.
* ``sampled`` — DBSCAN++-style: neighborhood queries only for a
  sampled candidate subset; found cores are *true* cores (counts stay
  exact), non-cores are assigned by nearest-core-within-ε.
* ``summary`` — geometric reconstruction: cluster the weighted
  micro-cluster centers and broadcast labels to members; no per-point
  neighborhood query at all.

Every engine shares the result vocabulary: dense first-appearance
labels, a core mask that only marks provably-core points, the work
counters, phase timers under the Table III names, and the documented
``extras`` keys plus :data:`ExtraKeys.ENGINE` /
:data:`ExtraKeys.ENGINE_OPTIONS` provenance.  Runs are published to the
metrics registry with an ``engine`` label and traced with an
``engine``-tagged ``fit`` span.
"""

from __future__ import annotations

import abc
import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.murtree import MuRTree
from repro.observability.adapters import publish_run
from repro.observability.registry import get_registry
from repro.observability.tracing import Tracer, maybe_span

__all__ = [
    "ClusteringEngine",
    "EngineFitState",
    "ENGINE_TYPES",
    "engine_names",
    "resolve_engine",
]


@dataclass
class EngineFitState:
    """What an engine's strategy hands back to the shared assemblers."""

    murtree: MuRTree
    labels: np.ndarray
    core_mask: np.ndarray
    #: engine-specific extras merged over the shared ones
    extras: dict[str, Any] = field(default_factory=dict)


class ClusteringEngine(abc.ABC):
    """One clustering strategy behind the ``fit`` facade.

    Subclasses declare their construction options in ``OPTIONS`` (the
    names :func:`resolve_engine` extracts from a ``fit(...)`` call) and
    implement :meth:`_fit_state`; the base class owns the shared
    assembly — result packaging, model packaging, observability.
    """

    name: ClassVar[str] = "abstract"
    #: constructor option names, extractable from facade keyword soup
    OPTIONS: ClassVar[tuple[str, ...]] = ()

    # -- configuration introspection -----------------------------------

    def get_params(self) -> dict[str, Any]:
        """The engine's construction options (round-trippable)."""
        return {name: getattr(self, name) for name in self.OPTIONS}

    def __repr__(self) -> str:
        opts = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({opts})"

    # -- the strategy --------------------------------------------------

    @abc.abstractmethod
    def _fit_state(
        self,
        points: np.ndarray,
        params: DBSCANParams,
        *,
        counters: Counters,
        timers: PhaseTimer,
        **fit_opts: Any,
    ) -> EngineFitState:
        """Run the strategy; phases are timed into ``timers``."""

    # -- shared assembly -----------------------------------------------

    @property
    def algorithm(self) -> str:
        return f"mu_dbscan_{self.name}"

    def _shared_extras(self, fs: EngineFitState, params: DBSCANParams) -> dict[str, Any]:
        murtree = fs.murtree
        extras: dict[str, Any] = {
            ExtraKeys.N_MICRO_CLUSTERS: murtree.n_micro_clusters,
            ExtraKeys.AVG_MC_SIZE: murtree.avg_mc_size,
            ExtraKeys.MC_KIND_COUNTS: murtree.kind_counts(params.min_pts),
            ExtraKeys.METRIC: murtree.metric.name,
            ExtraKeys.ENGINE: self.name,
            ExtraKeys.ENGINE_OPTIONS: dict(self.get_params()),
        }
        extras.update(fs.extras)
        return extras

    def _run(
        self,
        points: np.ndarray,
        eps: float,
        min_pts: int,
        *,
        timers: PhaseTimer | None,
        tracer: Tracer | None,
        fit_opts: dict[str, Any],
    ) -> tuple[EngineFitState, DBSCANParams, Counters, PhaseTimer]:
        params = DBSCANParams(eps=eps, min_pts=min_pts)
        counters = Counters()
        timers = timers if timers is not None else PhaseTimer()
        pts = np.ascontiguousarray(points, dtype=np.float64)
        activation = (
            tracer.activate() if tracer is not None else contextlib.nullcontext()
        )
        with activation, maybe_span(
            "fit", n=int(pts.shape[0]), eps=eps, min_pts=min_pts, engine=self.name
        ):
            fs = self._fit_state(
                pts, params, counters=counters, timers=timers, **fit_opts
            )
        publish_run(
            get_registry(), counters, timers,
            algorithm=self.algorithm, engine=self.name,
        )
        return fs, params, counters, timers

    def fit(
        self,
        points: np.ndarray,
        eps: float,
        min_pts: int,
        *,
        timers: PhaseTimer | None = None,
        tracer: Tracer | None = None,
        **fit_opts: Any,
    ) -> ClusteringResult:
        """Cluster ``points`` and package a :class:`ClusteringResult`."""
        fs, params, counters, timers = self._run(
            points, eps, min_pts, timers=timers, tracer=tracer, fit_opts=fit_opts
        )
        return ClusteringResult(
            labels=fs.labels,
            core_mask=fs.core_mask,
            params=params,
            algorithm=self.algorithm,
            counters=counters,
            timers=timers,
            extras=self._shared_extras(fs, params),
        )

    def fit_model(
        self,
        points: np.ndarray,
        eps: float,
        min_pts: int,
        **fit_opts: Any,
    ):
        """Cluster ``points`` and package a servable ``FittedModel``.

        The artifact stores the full micro-cluster structure (members
        always; reach lists when the strategy computed them — the
        ``summary`` engine never does, and prediction routing does not
        need them, so its reach lists are stored empty), so
        ``load_model`` + ``predict_model`` work for every engine without
        a refit.
        """
        from repro._version import __version__
        from repro.serving.model import FittedModel

        fs, params, counters, timers = self._run(
            points, eps, min_pts, timers=None, tracer=None, fit_opts=fit_opts
        )
        murtree = fs.murtree
        reach_offsets, reach_flat = murtree.reach_offsets, murtree.reach_flat
        if reach_offsets is None:
            reach_offsets = np.zeros(murtree.n_micro_clusters + 1, dtype=np.int64)
            reach_flat = np.empty(0, dtype=np.int64)
        extras = self._shared_extras(fs, params)
        extras[ExtraKeys.FIT_SECONDS] = timers.total()
        return FittedModel(
            points=murtree.points,
            labels=fs.labels,
            core_mask=fs.core_mask,
            point_mc=murtree.point_mc,
            center_rows=murtree.center_rows,
            member_offsets=murtree.member_offsets,
            member_flat=murtree.member_flat,
            reach_offsets=reach_offsets,
            reach_flat=reach_flat,
            params=params,
            metric_name=murtree.metric.name,
            algorithm=self.algorithm,
            counters=counters,
            extras=extras,
            meta={
                "created_unix": time.time(),
                "repro_version": __version__,
                "engine": self.name,
                "engine_options": dict(self.get_params()),
            },
            _murtree=murtree,  # fit-side index is already warm — reuse it
        )


# ---------------------------------------------------------------------
# registry

def _engine_types() -> dict[str, type[ClusteringEngine]]:
    # local import: the concrete engines import shared machinery that
    # in turn may import this module
    from repro.engines.exact import ExactEngine
    from repro.engines.sampled import SampledCoreEngine
    from repro.engines.summary import SummaryEngine

    return {
        ExactEngine.name: ExactEngine,
        SampledCoreEngine.name: SampledCoreEngine,
        SummaryEngine.name: SummaryEngine,
    }


class _LazyEngineTypes(dict):
    """Materialised on first access so module import stays cycle-free."""

    def _ensure(self) -> None:
        if not super().__len__():
            super().update(_engine_types())

    def __getitem__(self, key):  # pragma: no branch - trivial
        self._ensure()
        return super().__getitem__(key)

    def __iter__(self):
        self._ensure()
        return super().__iter__()

    def __len__(self):
        self._ensure()
        return super().__len__()

    def __contains__(self, key):
        self._ensure()
        return super().__contains__(key)

    def keys(self):
        self._ensure()
        return super().keys()

    def items(self):
        self._ensure()
        return super().items()


#: name -> engine class, for the ``engine="..."`` facade spelling
ENGINE_TYPES: dict[str, type[ClusteringEngine]] = _LazyEngineTypes()


def engine_names() -> list[str]:
    """The registered engine names (facade / CLI choices)."""
    return list(ENGINE_TYPES)


def resolve_engine(
    spec: str | ClusteringEngine,
    opts: dict[str, Any] | None = None,
) -> tuple[ClusteringEngine, dict[str, Any]]:
    """Turn a facade ``engine=`` spec into an engine instance.

    ``spec`` is an engine name or a pre-configured instance.  ``opts``
    is the caller's keyword soup: engine construction options (the
    class's ``OPTIONS``) are extracted and consumed, everything else is
    returned for the engine's ``fit``/``fit_model`` call.  Passing
    engine options alongside an already-configured instance is an
    error — configure the instance instead.
    """
    opts = dict(opts or {})
    if isinstance(spec, ClusteringEngine):
        clashes = [k for k in type(spec).OPTIONS if k in opts]
        if clashes:
            raise TypeError(
                f"engine options {clashes} conflict with the configured "
                f"{type(spec).__name__} instance; set them on the instance"
            )
        return spec, opts
    if spec not in ENGINE_TYPES:
        raise ValueError(
            f"unknown engine {spec!r}; choices: {', '.join(engine_names())}"
        )
    cls = ENGINE_TYPES[spec]
    engine_opts = {k: opts.pop(k) for k in cls.OPTIONS if k in opts}
    return cls(**engine_opts), opts
