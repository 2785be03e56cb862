"""Live-serving integration of the streaming engine.

:class:`StreamingEngine` binds a :class:`~repro.streaming.StreamingMuDBSCAN`
to a served :class:`~repro.serving.model.FittedModel` and keeps the two
in sync **in place** — no refit (the stream maintains the clustering
incrementally), no model swap (the served ``FittedModel`` object is
mutated under a lock; its lazily built routing table, μR-tree view
and version token are invalidated so caches re-key).  Queries keep
flowing against the same object mid-stream, and the gap between the
stream head and the served snapshot is exported as staleness gauges
through the observability registry (the same registry the HTTP
``/metrics`` endpoint renders):

* ``mudbscan_stream_updates_total{kind=...}`` — applied inserts /
  deletes / expiries;
* ``mudbscan_stream_live_points`` — live-window size at the stream head;
* ``mudbscan_stream_staleness_updates`` / ``_staleness_seconds`` — how
  far the served snapshot lags the stream head;
* ``mudbscan_stream_refreshes_total`` / ``_compactions_total`` — served
  snapshot syncs and MC compactions;
* ``mudbscan_stream_parity_ari`` — last windowed exactness check.

``refresh_every`` bounds staleness by update count; the windowed
exactness checker (:func:`repro.validation.exactness.check_window_parity`)
is available as :meth:`StreamingEngine.check_parity` and proves the
served labels equal a batch refit of the live window.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable

import numpy as np

from repro.observability.logging import EventLog, get_event_log
from repro.observability.registry import MetricsRegistry, get_registry
from repro.serving.model import FittedModel
from repro.streaming.incremental import StreamingMuDBSCAN

__all__ = ["StreamingEngine"]


class StreamingEngine:
    """Apply a live update stream to a served model, in place.

    Parameters
    ----------
    stream:
        A non-empty :class:`StreamingMuDBSCAN` (the clustering state).
    registry:
        Metrics registry for the gauges above (defaults to the
        process-active registry, a no-op unless one is installed).
    refresh_every:
        Sync the served model after this many update batches (1 =
        every batch).  Between refreshes the served snapshot lags and
        the staleness gauges say by how much.
    """

    def __init__(
        self,
        stream: StreamingMuDBSCAN,
        *,
        registry: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
        refresh_every: int = 1,
    ) -> None:
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        self.stream = stream
        self.registry = registry if registry is not None else get_registry()
        self.log = (
            event_log if event_log is not None else get_event_log()
        ).child("streaming")
        self.refresh_every = refresh_every
        self._lock = threading.RLock()
        self.model: FittedModel = stream.to_fitted_model()
        self._staleness_updates = 0
        self._last_refresh = time.monotonic()
        self._compactions_seen = stream.compactions_total
        self.updates_total = 0
        self.refreshes_total = 0
        self._gauges()

    # ------------------------------------------------------------------

    def _gauges(self) -> None:
        reg = self.registry
        self._g_updates = reg.counter(
            "mudbscan_stream_updates_total",
            "stream updates applied to the live model",
            labels=("kind",),
        )
        self._g_live = reg.gauge(
            "mudbscan_stream_live_points", "live points at the stream head"
        )
        self._g_stale_updates = reg.gauge(
            "mudbscan_stream_staleness_updates",
            "update batches applied since the served snapshot was synced",
        )
        self._g_stale_seconds = reg.gauge(
            "mudbscan_stream_staleness_seconds",
            "seconds since the served snapshot was synced",
        )
        self._g_refreshes = reg.counter(
            "mudbscan_stream_refreshes_total", "served-snapshot syncs"
        )
        self._g_compactions = reg.counter(
            "mudbscan_stream_compactions_total", "micro-cluster compactions"
        )
        self._g_parity = reg.gauge(
            "mudbscan_stream_parity_ari",
            "ARI of the last windowed exactness check (1.0 = exact)",
        )

    def _export_stats(self) -> None:
        self._g_live.set(float(self.stream.n_live))
        self._g_stale_updates.set(float(self._staleness_updates))
        self._g_stale_seconds.set(time.monotonic() - self._last_refresh)
        new_compactions = self.stream.compactions_total - self._compactions_seen
        if new_compactions:
            self._g_compactions.inc(float(new_compactions))
            self._compactions_seen = self.stream.compactions_total

    # ------------------------------------------------------------------

    def apply(
        self,
        inserts: np.ndarray | None = None,
        deletes: np.ndarray | Iterable[int] | None = None,
    ) -> dict[str, Any]:
        """Apply one update batch (inserts and/or deletes) and sync.

        Returns the stream's per-batch stats plus the staleness state.
        Expiry triggered by the stream's window counts as its own
        update kind.
        """
        with self._lock:
            if inserts is not None and np.asarray(inserts).size:
                self.stream.partial_fit(inserts)
                self._g_updates.labels(kind="insert").inc(
                    float(np.atleast_2d(np.asarray(inserts)).shape[0])
                )
                expired = int(self.stream.last_update_stats.get("expired", 0))
                if expired:
                    self._g_updates.labels(kind="expire").inc(float(expired))
            if deletes is not None:
                ids = np.atleast_1d(np.asarray(deletes, dtype=np.int64))
                if ids.size:
                    self.stream.delete(ids)
                    self._g_updates.labels(kind="delete").inc(float(ids.size))
            self.updates_total += 1
            self._staleness_updates += 1
            if self._staleness_updates >= self.refresh_every:
                self.refresh()
            else:
                self._export_stats()
            return {
                **self.stream.last_update_stats,
                "staleness_updates": self._staleness_updates,
            }

    def refresh(self) -> str:
        """Sync the served model to the stream head, in place.

        The served ``FittedModel`` object keeps its identity (no swap);
        its arrays are replaced and the cached routing table, μR-tree
        view and version token are dropped, so the next query lazily
        re-keys — exactly the cache-coherence contract ``QueryEngine``
        relies on.
        Returns the new version token.
        """
        with self._lock:
            snapshot = self.stream.to_fitted_model()
            model = self.model
            for name in FittedModel.ARRAY_FIELDS:
                setattr(model, name, getattr(snapshot, name))
            model.params = snapshot.params
            model.metric_name = snapshot.metric_name
            model.algorithm = snapshot.algorithm
            model.counters = snapshot.counters
            model.extras = snapshot.extras
            model.meta = snapshot.meta
            model._murtree = None
            model._route_table = None
            model._version_token = None
            model.serving_counters.reset()
            staleness_updates = self._staleness_updates
            self._staleness_updates = 0
            self._last_refresh = time.monotonic()
            self.refreshes_total += 1
            self._g_refreshes.inc()
            self._export_stats()
            version = model.version_token()
            self.log.debug(
                "model_refreshed",
                version=version,
                refreshes_total=self.refreshes_total,
                updates_absorbed=staleness_updates,
                live_points=int(self.stream.n_live),
            )
            return version

    # ------------------------------------------------------------------

    def check_parity(self) -> "Any":
        """Windowed exactness: served labels vs a batch refit.

        Runs :func:`repro.validation.exactness.check_window_parity` on
        the stream head and exports the ARI gauge.  ``report.ok`` means
        the maintained clustering is indistinguishable from refitting
        the live window from scratch.
        """
        from repro.validation.exactness import check_window_parity

        with self._lock:
            report = check_window_parity(
                self.stream.result(),
                self.stream.window_points,
                metric=self.stream.metric,
            )
        self._g_parity.set(report.ari)
        return report

    def fanout(self, fleet) -> "Any":
        """Push the current served snapshot to a sharded fleet.

        Re-uses the fleet's hot-swap path (warm new generation, flip,
        drain): the in-place streaming model feeds single-process
        serving, while fleets pick up the stream in generations.
        Returns the fleet's ``SwapReport``.
        """
        with self._lock:
            if self._staleness_updates:
                self.refresh()
            return fleet.swap(self.model)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            self._export_stats()
            return {
                "updates_total": self.updates_total,
                "refreshes_total": self.refreshes_total,
                "staleness_updates": self._staleness_updates,
                "staleness_seconds": time.monotonic() - self._last_refresh,
                "live_points": self.stream.n_live,
                "compactions_total": self.stream.compactions_total,
                "model_version": self.model.version_token(),
            }
