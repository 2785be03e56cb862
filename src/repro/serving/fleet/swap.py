"""Model generations + the hot-swap protocol.

A :class:`Generation` is one immutable deployment of one model version:
its shared-memory segments, its kd-shard plan and its worker processes
(or, at ``n_workers=0``, its one in-process worker and no segments).
The fleet serves exactly one *active* generation at a time; a hot swap

1. **loads** the new model and publishes its arrays to fresh
   shared-memory segments (one artifact read, as at startup),
2. **warms** a full replacement worker set against those segments and
   waits until every worker reports ready (model mapped, shard built,
   engine warmed) — the old generation serves all traffic meanwhile,
3. **flips** the fleet's active-generation pointer atomically (a lock
   swap in the front door's dispatch path — no request observes a
   half-set),
4. **drains** the old generation: requests admitted before the flip
   hold a reference on their generation, and retirement waits until
   that count reaches zero before telling the old workers to exit and
   unlinking the old segments.

Requests therefore never fail because of a swap: pre-flip requests
complete on the old workers, post-flip requests run on the new ones —
the concurrent-swap test drives sustained traffic through a swap and
asserts exactly that (zero errors, monotonic version).
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.serving.fleet.router import ShardPlan, plan_shards
from repro.serving.fleet.worker import (
    InProcessWorker,
    WorkerClient,
    fleet_worker_main,
)
from repro.serving.model import FittedModel

__all__ = ["Generation", "SwapReport", "launch_generation", "retire_generation"]


@dataclass
class SwapReport:
    """Timings + outcome of one hot swap (surfaced via ``/stats``)."""

    from_version: str
    to_version: str
    generation: int
    warmup_seconds: float
    drain_seconds: float
    ok: bool = True


@dataclass
class Generation:
    """One deployed model version: segments + plan + worker set.

    ``n_workers`` is the configured process count; at 0 ``workers`` holds
    the one in-process worker and ``segments`` is empty.
    """

    number: int
    version: str
    n_workers: int
    router: str
    plan: ShardPlan | None
    workers: list[WorkerClient | InProcessWorker]
    segments: list[shared_memory.SharedMemory]
    model_meta: dict[str, Any]
    _inflight: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _drained: threading.Event = field(default_factory=threading.Event)
    retired: bool = False

    # -- inflight accounting (the drain barrier) ------------------------

    def enter(self) -> None:
        with self._lock:
            self._inflight += 1
            self._drained.clear()

    def leave(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._drained.set()

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def wait_drained(self, timeout: float | None = None) -> bool:
        with self._lock:
            if self._inflight <= 0:
                return True
        return self._drained.wait(timeout)

    @property
    def ready(self) -> bool:
        return all(w.alive and w.ready_meta is not None for w in self.workers)


def launch_generation(
    model: FittedModel,
    *,
    number: int,
    n_workers: int,
    router: str = "kd",
    engine_opts: dict[str, Any] | None = None,
    ready_timeout: float = 120.0,
    obs_opts: dict[str, Any] | None = None,
) -> Generation:
    """Warm a full worker set for ``model``; blocks until it is ready.

    ``n_workers=0`` runs the one worker inside this process (an
    :class:`~repro.serving.fleet.worker.InProcessWorker`) and starts no
    process, pipe or shared-memory segment.  ``n_workers >= 1``
    publishes the model to shared memory and spawns that many workers,
    tearing down anything already started if one fails.  ``router="kd"``
    gives each spawned worker one spatial shard; ``"none"`` gives each a
    full replica (the front door then round-robins whole requests).
    ``obs_opts`` carries the parent's observability config (event-log
    sink, worker metrics toggle) to the workers.
    """
    if n_workers < 0:
        raise ValueError(f"n_workers must be >= 0, got {n_workers}")
    if router not in ("kd", "none"):
        raise ValueError(f"router must be 'kd' or 'none', got {router!r}")
    engine_opts = dict(engine_opts or {})
    obs_opts = dict(obs_opts or {})
    plan = plan_shards(model, n_workers) if router == "kd" and n_workers > 1 else None
    if n_workers == 0:
        segments, workers = [], [InProcessWorker(model, engine_opts, obs_opts)]
    else:
        segments, workers = _spawn_workers(
            model, n_workers, plan, engine_opts, obs_opts, ready_timeout
        )
    gen = Generation(
        number=number,
        version=model.version_token(),
        n_workers=n_workers,
        router=router,
        plan=plan,
        workers=workers,
        segments=segments,
        model_meta={
            "n": model.n,
            "dim": model.dim,
            "n_micro_clusters": model.n_micro_clusters,
            "eps": model.params.eps,
            "min_pts": model.params.min_pts,
            "metric": model.metric_name,
            "engine": model.engine,
        },
    )
    gen._drained.set()
    return gen


def _spawn_workers(
    model: FittedModel,
    n_workers: int,
    plan: ShardPlan | None,
    engine_opts: dict[str, Any],
    obs_opts: dict[str, Any],
    ready_timeout: float,
) -> tuple[list[shared_memory.SharedMemory], list[WorkerClient]]:
    """Publish ``model`` to shared memory and start ``n_workers`` warm
    worker processes over it."""
    header = model.header_dict()
    ctx = mp.get_context("spawn")
    segments: list[shared_memory.SharedMemory] = []
    workers: list[WorkerClient] = []
    try:
        shm_specs: dict[str, Any] = {}
        for name, arr in model.array_fields().items():
            arr = np.ascontiguousarray(arr)
            shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
            segments.append(shm)
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
            shm_specs[name] = (shm.name, arr.shape, arr.dtype.str)

        for wid in range(n_workers):
            req_r, req_w = ctx.Pipe(duplex=False)
            resp_r, resp_w = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=fleet_worker_main,
                args=(
                    wid,
                    shm_specs,
                    header,
                    plan,
                    wid if plan is not None else None,
                    req_r,
                    resp_w,
                    engine_opts,
                    obs_opts,
                ),
                name=f"mudbscan-fleet-worker-{wid}",
                daemon=True,
            )
            proc.start()
            workers.append(WorkerClient(wid, proc, req_w, resp_r))
        deadline = time.monotonic() + ready_timeout
        for w in workers:
            w.wait_ready(max(0.1, deadline - time.monotonic()))
        return segments, workers
    except BaseException:
        for w in workers:
            try:
                w.shutdown(timeout=5.0)
            except Exception:
                pass
        _unlink_segments(segments)
        raise


def retire_generation(
    gen: Generation, *, drain_timeout: float = 60.0
) -> float:
    """Drain, stop and unlink a generation; returns drain seconds.

    Safe to call on a never-activated generation (drain returns
    immediately) and idempotent.
    """
    if gen.retired:
        return 0.0
    start = time.monotonic()
    drained = gen.wait_drained(drain_timeout)
    drain_seconds = time.monotonic() - start
    if not drained:
        # give stragglers their answer anyway: workers finish the
        # requests already on their pipes before honouring shutdown
        pass
    for w in gen.workers:
        w.shutdown()
    _unlink_segments(gen.segments)
    gen.retired = True
    return drain_seconds


def _unlink_segments(segments: list[shared_memory.SharedMemory]) -> None:
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass
