"""μDBSCAN-D — Algorithm 9, on a pluggable execution backend.

Four phases per rank (names match Table VII/VIII):

1. ``partitioning``        — sampling-median kd splits (§V-A).  The
   paper excludes data distribution from its speedup numbers; the
   driver times it separately so benches can do the same.
2. ``halo_exchange``       — fetch the ε-extended region (§V-B).
3. local μDBSCAN           — ``tree_construction`` /
   ``finding_reachable_groups`` / ``clustering`` / ``post_processing``.
4. ``merging``             — fragment exchange and deterministic global
   resolution (§V-C).

The rank function is a picklable top-level callable written against
the backend-agnostic :class:`~repro.distributed.backends.base.Communicator`,
so the same code runs thread-per-rank (``backend="thread"``, the
default — exact semantics, GIL-bound) or process-per-rank
(``backend="process"`` — real parallelism, dataset in shared memory).
Per-rank phases are timed with the backend's per-rank CPU clock
(``comm.clock``: thread-CPU under the GIL, process-CPU for workers);
the as-if-parallel run-time of the job is ``max over ranks`` of local
compute plus the merge, exposed via :func:`parallel_time`.
"""

from __future__ import annotations

import contextlib
from typing import Any

import numpy as np

from repro._compat import deprecated_alias
from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.distributed.backends import launch
from repro.distributed.backends.base import Communicator
from repro.distributed.halo import exchange_halo
from repro.distributed.local import run_local_mu_dbscan
from repro.distributed.merging import resolve_fragments
from repro.distributed.partition import kd_partition
from repro.geometry.distance import require_finite
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.observability.adapters import publish_comm_stats, publish_run
from repro.observability.monitor import RunMonitor
from repro.observability.profiler import PhaseProfiler, current_profiler, maybe_profile, rank_rusage
from repro.observability.registry import get_registry
from repro.observability.tracing import Tracer, current_tracer

__all__ = ["mu_dbscan_d", "parallel_time", "LOCAL_PHASES"]

#: reusable no-op context for the tracer-less fast path
_NULL_CTX = contextlib.nullcontext()

#: the local-compute phases making up the parallel-time estimate
LOCAL_PHASES = (
    "tree_construction",
    "finding_reachable_groups",
    "clustering",
    "post_processing",
)


def _rank_main(
    comm: Communicator,
    shared: dict[str, np.ndarray],
    params: DBSCANParams,
    sample_size: int,
    seed: int,
    mu_kwargs: dict[str, Any],
    trace_ctx: dict[str, Any] | None = None,
    profile_ctx: dict[str, Any] | None = None,
) -> dict[str, Any]:
    points = shared["points"]
    timers = PhaseTimer(clock=comm.clock)
    n_global = points.shape[0]

    # each rank builds its own tracer re-rooted under the driver's
    # trace_context — a picklable dict, so it crosses the process
    # backend's spawn boundary and every rank's spans join one tree.
    # The profiler crosses the same way; activating it makes the local
    # μDBSCAN phases inside run_local_mu_dbscan profile themselves via
    # their maybe_profile hooks.
    tracer = Tracer.from_context(trace_ctx)
    profiler = PhaseProfiler.from_context(profile_ctx)
    profiling = profiler.activate() if profiler is not None else contextlib.nullcontext()
    with tracer.activate(), profiling, tracer.span(
        "rank", rank=comm.rank, size=comm.size
    ):
        # block distribution stands in for the paper's parallel file read;
        # the slice below is each rank's only read of the shared dataset
        blocks = np.array_split(np.arange(n_global, dtype=np.int64), comm.size)
        my_gids = blocks[comm.rank]
        my_points = points[my_gids]
        n_owned = int(my_gids.size)

        comm.heartbeat(phase="partitioning", points_done=0, points_total=n_owned)
        with timers.phase("partitioning"), tracer.span("partitioning") as span, (
            maybe_profile("partitioning", span=span)
        ):
            part = kd_partition(
                comm, my_points, my_gids, sample_size=sample_size, seed=seed
            )
        n_owned = int(part.gids.size)
        comm.heartbeat(phase="halo_exchange", points_done=0, points_total=n_owned)
        with timers.phase("halo_exchange"), tracer.span("halo_exchange") as span, (
            maybe_profile("halo_exchange", span=span)
        ):
            halo = exchange_halo(
                comm,
                part.points,
                part.gids,
                part.all_box_lows,
                part.all_box_highs,
                params.eps,
            )

        # the clustering pass's consumption loop drives the progress
        # heartbeats — with no sink installed each callback is one
        # attribute check inside comm.heartbeat
        def _clustering_progress(done: int, total: int) -> None:
            comm.heartbeat(phase="clustering", points_done=done, points_total=total)

        fragment = run_local_mu_dbscan(
            part.points,
            part.gids,
            halo.points,
            halo.gids,
            params,
            timers=timers,
            progress_cb=_clustering_progress,
            **mu_kwargs,
        )

        comm.heartbeat(phase="merging", points_done=n_owned, points_total=n_owned)
        with timers.phase("merging"), tracer.span("merging") as span, (
            maybe_profile("merging", span=span)
        ):
            # fragments fan into rank 0, which resolves once; the paper's
            # pairwise UNION exchange produces the same components — one
            # resolver keeps the replicated Python work out of the
            # parallel-time estimate without changing any label
            fragments = comm.gather(fragment, root=0)
            outcome = None
            if comm.rank == 0:
                counters = Counters()
                outcome = resolve_fragments(fragments, n_global, counters=counters)
            comm.barrier()
        comm.heartbeat(
            phase="merging", points_done=n_owned, points_total=n_owned, done=True
        )

    return {
        "rank": comm.rank,
        "labels": outcome.labels if outcome is not None else None,
        "core_mask": outcome.core_mask if outcome is not None else None,
        "n_cross_pairs": outcome.n_cross_pairs if outcome is not None else 0,
        "phase_seconds": timers.as_dict(),
        "counters": fragment.counters,
        "stats": fragment.stats,
        "bytes_sent": comm.bytes_sent,
        "messages_sent": comm.messages_sent,
        "spans": tracer.finished() if tracer.enabled else [],
        "profile": profiler.as_dict() if profiler is not None else None,
        "rusage": rank_rusage(comm.rusage_scope),
    }


@deprecated_alias(minpts="min_pts", nranks="n_ranks", num_ranks="n_ranks")
def mu_dbscan_d(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    n_ranks: int,
    *,
    backend: str = "thread",
    sample_size: int = 256,
    seed: int = 0,
    tracer: Tracer | None = None,
    profiler: PhaseProfiler | None = None,
    monitor: RunMonitor | None = None,
    **mu_kwargs: Any,
) -> ClusteringResult:
    """Cluster ``points`` with μDBSCAN-D on ``n_ranks`` ranks of ``backend``.

    Produces exactly the clustering of sequential μDBSCAN / classical
    DBSCAN (the test suite asserts it), on every backend — labels,
    counters and communication volume are backend-invariant for the
    same seed.  ``extras`` carries the per-rank phase timings and
    communication volumes the distributed tables report.

    With a ``tracer`` (given or already active), the run produces a
    ``mu_dbscan_d`` root span with one ``rank`` span per rank and the
    per-rank phases nested below — the ``trace_context`` crosses the
    process backend's spawn boundary, so the tree is whole on every
    backend.  Counters, parallel-time phases and per-rank byte/message
    volumes are published to the active metrics registry.

    With a ``profiler`` (given or already active), each rank profiles
    its phases (tracemalloc deltas, RSS) and reports its rusage; the
    driver adopts the per-rank tables, so
    ``profiler.per_rank()`` / ``extras["per_rank_memory"]`` carry the
    distributed Table IV-style memory split-up.

    With a ``monitor`` (a
    :class:`~repro.observability.monitor.RunMonitor`), ranks post
    heartbeats while the job runs — phase transitions plus clustering
    progress every few hundred points — and the monitor aggregates
    them into gauges, straggler and stall detection, and the
    ``--progress`` live view.  All three are off by default.
    """
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    require_finite(pts)

    tracer = tracer if tracer is not None else current_tracer()
    profiler = profiler if profiler is not None else current_profiler()
    if monitor is not None and monitor.n_ranks is None:
        monitor.n_ranks = n_ranks
    with (
        tracer.activate() if tracer is not None else _NULL_CTX
    ), (
        tracer.span("mu_dbscan_d", n=int(pts.shape[0]), n_ranks=n_ranks, backend=backend)
        if tracer is not None
        else _NULL_CTX
    ):
        trace_ctx = tracer.context() if tracer is not None and tracer.enabled else None
        profile_ctx = profiler.context() if profiler is not None else None
        rank_results = launch(
            n_ranks,
            _rank_main,
            params,
            sample_size,
            seed,
            mu_kwargs,
            trace_ctx,
            profile_ctx,
            backend=backend,
            shared={"points": pts},
            progress=monitor.record if monitor is not None else None,
        )
    if tracer is not None:
        for rr in rank_results:
            tracer.adopt(rr["spans"])
    if profiler is not None:
        for rr in rank_results:
            if rr["profile"] is not None:
                profiler.adopt_rank(rr["rank"], rr["profile"], rr["rusage"])

    counters = Counters()
    per_rank_phases: list[dict[str, float]] = []
    for rr in rank_results:
        counters.merge(rr["counters"])
        per_rank_phases.append(rr["phase_seconds"])

    timers = PhaseTimer()
    for phases in per_rank_phases:
        rank_timer = PhaseTimer()
        for name, secs in phases.items():
            rank_timer.add(name, secs)
        timers.merge_max(rank_timer)  # parallel time: slowest rank per phase

    registry = get_registry()
    publish_run(registry, counters, timers, algorithm="mu_dbscan_d")
    publish_comm_stats(
        registry,
        backend=backend,
        per_rank=[
            (rr["rank"], rr["bytes_sent"], rr["messages_sent"]) for rr in rank_results
        ],
    )

    labels = rank_results[0]["labels"]
    core_mask = rank_results[0]["core_mask"]
    extras = {
        ExtraKeys.N_RANKS: n_ranks,
        ExtraKeys.BACKEND: backend,
        ExtraKeys.PER_RANK_PHASES: per_rank_phases,
        ExtraKeys.PER_RANK_STATS: [rr["stats"] for rr in rank_results],
        ExtraKeys.N_CROSS_PAIRS: rank_results[0]["n_cross_pairs"],
        ExtraKeys.BYTES_SENT_TOTAL: sum(rr["bytes_sent"] for rr in rank_results),
        ExtraKeys.MESSAGES_SENT_TOTAL: sum(
            rr["messages_sent"] for rr in rank_results
        ),
    }
    if profiler is not None:
        extras[ExtraKeys.PER_RANK_MEMORY] = [rr["profile"] for rr in rank_results]
        extras[ExtraKeys.PER_RANK_RUSAGE] = [rr["rusage"] for rr in rank_results]
    return ClusteringResult(
        labels=labels,
        core_mask=core_mask,
        params=params,
        algorithm="mu_dbscan_d",
        counters=counters,
        timers=timers,
        extras=extras,
    )


def parallel_time(result: ClusteringResult, include_partitioning: bool = False) -> float:
    """As-if-parallel run-time: slowest rank's local compute + merge.

    The paper excludes data distribution (``partitioning`` and
    ``halo_exchange``) from its reported times; pass
    ``include_partitioning=True`` to add them.
    """
    phases = list(LOCAL_PHASES) + ["merging"]
    if include_partitioning:
        phases += ["partitioning", "halo_exchange"]
    return sum(result.timers.get(p) for p in phases)
