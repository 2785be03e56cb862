"""Thread-per-rank backend (the original ``simmpi`` substrate).

Every rank is a daemon thread inside the calling interpreter; a
``(src, dst, tag)`` triple owns a FIFO mailbox, so message order is
preserved per channel exactly as MPI guarantees, and a ``recv`` blocks
until the matching ``send`` lands.  Ranks share the GIL, so this
backend can never show a real wall-clock speedup — it exists for
*semantics*: deterministic labels, counters and byte accounting with
zero serialisation cost, which keeps the correctness test suite fast.
Use the ``process`` backend for actual parallel execution.

Failure handling: when any rank raises, the launcher poisons the
world — every mailbox (existing and future) yields a shutdown
sentinel, so peers blocked on ``recv`` (or about to ``send``) unblock
with :class:`WorldShutdownError` instead of hanging forever.  All rank
threads are then joined before the original error is re-raised, so a
failed run leaves no stray ``simmpi-rank-*`` threads behind.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from repro.distributed.backends.base import Communicator

__all__ = ["World", "ThreadCommunicator", "WorldShutdownError", "launch_threads", "run_mpi"]

#: sentinel delivered to every mailbox when the world shuts down
_POISON = object()


class WorldShutdownError(RuntimeError):
    """Raised in surviving ranks when the world is torn down after a failure."""


class World:
    """Shared state of one simulated MPI job (mailboxes + rank count)."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self._boxes: dict[tuple[int, int, int], queue.SimpleQueue] = {}
        self._boxes_lock = threading.Lock()
        self._shutdown = False

    def mailbox(self, src: int, dst: int, tag: int) -> queue.SimpleQueue:
        key = (src, dst, tag)
        box = self._boxes.get(key)
        if box is None:
            with self._boxes_lock:
                box = self._boxes.setdefault(key, queue.SimpleQueue())
                if self._shutdown:
                    box.put(_POISON)  # boxes born after shutdown are born poisoned
        return box

    def shutdown(self) -> None:
        """Poison every mailbox so blocked ranks unblock with an error.

        Idempotent and safe to call from any rank thread.  Messages
        already queued ahead of the poison are still delivered, so a
        healthy rank drains real traffic before it sees the shutdown.
        """
        with self._boxes_lock:
            self._shutdown = True
            for box in self._boxes.values():
                box.put(_POISON)

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown


class ThreadCommunicator(Communicator):
    """One rank's endpoint over the in-process mailbox world.

    Payloads travel by reference (zero-copy, unpicklable objects are
    legal); only the byte *accounting* pickles.
    """

    def __init__(self, world: World, rank: int) -> None:
        super().__init__(rank, world.size)
        self.world = world

    def _transport_send(self, obj: Any, data: bytes | None, dest: int, tag: int) -> None:
        if self.world.is_shutdown:
            raise WorldShutdownError(
                f"world shut down: rank {self.rank} cannot send to {dest}"
            )
        self.world.mailbox(self.rank, dest, tag).put(obj)

    def _transport_recv(self, source: int, tag: int) -> Any:
        box = self.world.mailbox(source, self.rank, tag)
        obj = box.get()
        if obj is _POISON:
            box.put(_POISON)  # keep the box poisoned for any later recv
            raise WorldShutdownError(
                f"world shut down while rank {self.rank} waited on "
                f"recv(source={source}, tag={tag})"
            )
        return obj


def launch_threads(
    n_ranks: int,
    fn: Callable[..., Any],
    args: tuple[Any, ...] = (),
    kwargs: dict[str, Any] | None = None,
    shared: dict[str, Any] | None = None,
    progress: Callable[[dict[str, Any]], None] | None = None,
) -> list[Any]:
    """Execute ``fn`` on ``n_ranks`` rank threads; per-rank results in order.

    ``fn`` is called as ``fn(comm, *args, **kwargs)``, or
    ``fn(comm, shared, *args, **kwargs)`` when a ``shared`` array dict
    is given (threads see the caller's arrays directly — sharing is
    free in-process).  The first real rank exception (lowest rank) is
    re-raised, chained to the original; ranks that died from the
    resulting shutdown are not reported as failures.

    ``progress``, when given, becomes every rank's heartbeat sink —
    ranks share the caller's process, so heartbeats are direct calls;
    the sink must therefore be thread-safe (``RunMonitor.record`` is).
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    kwargs = kwargs or {}
    world = World(n_ranks)
    results: list[Any] = [None] * n_ranks
    errors: list[BaseException | None] = [None] * n_ranks

    def runner(rank: int) -> None:
        comm = ThreadCommunicator(world, rank)
        comm._progress_sink = progress
        try:
            if shared is not None:
                results[rank] = fn(comm, shared, *args, **kwargs)
            else:
                results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — reported to caller
            errors[rank] = exc
            if not isinstance(exc, WorldShutdownError):
                world.shutdown()  # unblock every peer stuck on this rank

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    # shutdown() guarantees a failing run converges: every peer either
    # finishes or trips on the poison, so a full join cannot hang on a
    # rank error the way the old heartbeat-join could leak live threads
    for t in threads:
        t.join()
    first_real: tuple[int, BaseException] | None = None
    first_any: tuple[int, BaseException] | None = None
    for rank, err in enumerate(errors):
        if err is None:
            continue
        if first_any is None:
            first_any = (rank, err)
        if first_real is None and not isinstance(err, WorldShutdownError):
            first_real = (rank, err)
    failure = first_real or first_any
    if failure is not None:
        rank, err = failure
        raise RuntimeError(f"simmpi rank {rank} failed: {err!r}") from err
    return results


def run_mpi(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    **kwargs: Any,
) -> list[Any]:
    """Execute ``fn(comm, *args, **kwargs)`` on ``n_ranks`` simulated ranks.

    The convenience form of :func:`launch_threads`.
    """
    return launch_threads(n_ranks, fn, args, kwargs)
