"""Model persistence + online prediction serving.

The fit→save→serve pipeline the production story needs:

* :mod:`repro.serving.model` — :class:`FittedModel`, the frozen
  versioned artifact of a μDBSCAN run (binary save/load with checksum;
  serving reads the stored arrays and never re-runs Algorithm 3).
* :mod:`repro.serving.predict` — exact online assignment of new points
  (nearest-core-within-ε rule, Lemma-3 2ε pruning through cells of the
  micro-cluster centers, flat passes over (query, member) pairs) plus
  the brute-force oracle the tests compare against.
* :mod:`repro.serving.engine` — thread-safe :class:`QueryEngine` with
  request micro-batching, LRU answer caching and latency/hit-rate
  instrumentation.
* :mod:`repro.serving.fleet` — the serving fleet behind
  ``mudbscan serve``: one in-process worker or N worker processes
  (spatial kd-routing with a 2ε exactness halo, shared-memory model
  loading), hot model swap, and the async admission-controlled front
  door, the one HTTP server.
* :mod:`repro.serving.streaming` — :class:`StreamingEngine`, applying a
  live insert/delete stream to a served :class:`FittedModel` in place
  (no refit, no swap) with staleness/compaction gauges on ``/metrics``.
* :mod:`repro.serving.loadgen` — the open-loop load-test harness
  behind ``mudbscan loadtest`` and ``perf_smoke --fleet``.

See docs/SERVING.md for the artifact format and the exactness argument.
"""

from repro.serving.model import (
    FORMAT_VERSION,
    FittedModel,
    ModelFormatError,
    fit_model,
    load_model,
    save_model,
)
from repro.serving.predict import PredictResult, brute_predict, predict_model
from repro.serving.engine import PredictRow, QueryEngine
from repro.serving.fleet import (
    Fleet,
    FleetConfig,
    FrontDoor,
    ShardedPredictor,
    plan_shards,
    start_in_thread,
)
from repro.serving.streaming import StreamingEngine

__all__ = [
    "FORMAT_VERSION",
    "FittedModel",
    "ModelFormatError",
    "fit_model",
    "load_model",
    "save_model",
    "PredictResult",
    "predict_model",
    "brute_predict",
    "PredictRow",
    "QueryEngine",
    "Fleet",
    "FleetConfig",
    "FrontDoor",
    "ShardedPredictor",
    "plan_shards",
    "start_in_thread",
    "StreamingEngine",
]
