"""The frozen model artifact — fit once, serve anywhere.

A :class:`FittedModel` is a versioned snapshot of one μDBSCAN run:
the dataset, the labels and core flags, the complete micro-cluster
structure (centers, memberships, reachability lists) and the run's
parameters/counters.  It is everything online prediction needs and
nothing it does not: prediction reads the stored arrays plus a table
of the MC centers hashed into 2ε cells (:attr:`FittedModel.route_table`),
never an index rebuilt by re-running Algorithm 3 (the dominant
fit-time phase, Table III), so a model fitted on one machine loads in
milliseconds on another.

On-disk container (``save_model`` / ``load_model``)::

    MUDB | uint32 header_len | JSON header | .npz payload

The JSON header carries the format version, a SHA-256 checksum of the
payload, the clustering parameters and the fit-time counters; the
payload is one compressed ``.npz`` holding the arrays.  Loads verify
the magic, the format version and the checksum before touching a
single array — a corrupted or foreign file raises
:class:`ModelFormatError`, it never returns garbage.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro._compat import deprecated_alias
from repro._version import __version__
from repro.core.extras import ExtraKeys
from repro.core.mudbscan import run_mu_dbscan_state
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE, MuRTree
from repro.observability.adapters import publish_run
from repro.observability.registry import get_registry
from repro.observability.tracing import maybe_span
from repro.serving.predict import RouteTable

__all__ = [
    "FittedModel",
    "ModelFormatError",
    "fit_model",
    "save_model",
    "load_model",
    "FORMAT_VERSION",
    "MAGIC",
]

#: bump when the payload schema changes; loads reject other versions
FORMAT_VERSION = 1
#: file magic — first four bytes of every model file
MAGIC = b"MUDB"

_HEADER_STRUCT = struct.Struct("<I")  # header length, little-endian uint32


class ModelFormatError(ValueError):
    """The bytes are not a loadable model artifact (bad magic, wrong
    format version, checksum mismatch, missing arrays, truncation)."""


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars so ``json.dumps`` accepts it."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


@dataclass
class FittedModel:
    """Frozen, serializable artifact of one μDBSCAN fit.

    Attributes
    ----------
    points, labels, core_mask, point_mc:
        Per-row dataset state: coordinates (float64), dense cluster
        labels (``-1`` noise), the core flag and the owning MC id.
    center_rows:
        ``(m,)`` dataset row of each MC's center, in MC-id order.
    member_offsets / member_flat:
        CSR encoding of each MC's member rows (builder order preserved,
        founder first — the layout of the fit index's store, which
        :attr:`murtree` wraps as it is).
    reach_offsets / reach_flat:
        CSR encoding of each MC's reachable-MC id list (Algorithm 5
        output — stored so the μR-tree view never re-derives it;
        prediction does not read it).
    params / metric_name / algorithm:
        Clustering provenance.
    counters:
        Fit-time work counters (snapshot; serving work is counted
        separately by the query engine).
    extras / meta:
        The fit result's extras payload and artifact metadata
        (creation time, library version).
    """

    points: np.ndarray
    labels: np.ndarray
    core_mask: np.ndarray
    point_mc: np.ndarray
    center_rows: np.ndarray
    member_offsets: np.ndarray
    member_flat: np.ndarray
    reach_offsets: np.ndarray
    reach_flat: np.ndarray
    params: DBSCANParams
    metric_name: str = "euclidean"
    algorithm: str = "mu_dbscan"
    counters: Counters = field(default_factory=Counters)
    extras: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    _murtree: MuRTree | None = field(default=None, repr=False, compare=False)
    _route_table: RouteTable | None = field(default=None, repr=False, compare=False)
    #: counters prediction charges its work to — starts at zero so
    #: tests can assert no construction work happened
    serving_counters: Counters = field(default_factory=Counters)
    _version_token: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.core_mask = np.asarray(self.core_mask, dtype=bool)
        self.point_mc = np.asarray(self.point_mc, dtype=np.int64)
        self.center_rows = np.asarray(self.center_rows, dtype=np.int64)
        self.member_offsets = np.asarray(self.member_offsets, dtype=np.int64)
        self.member_flat = np.asarray(self.member_flat, dtype=np.int64)
        self.reach_offsets = np.asarray(self.reach_offsets, dtype=np.int64)
        self.reach_flat = np.asarray(self.reach_flat, dtype=np.int64)
        n = self.points.shape[0]
        m = self.center_rows.shape[0]
        if self.labels.shape != (n,) or self.core_mask.shape != (n,):
            raise ModelFormatError("labels/core_mask do not match the point count")
        if self.point_mc.shape != (n,):
            raise ModelFormatError("point_mc does not match the point count")
        if self.member_offsets.shape != (m + 1,) or self.reach_offsets.shape != (m + 1,):
            raise ModelFormatError("CSR offsets do not match the micro-cluster count")
        if self.member_flat.shape != (n,):
            raise ModelFormatError("member lists must partition the dataset")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_state(
        cls,
        state,
        *,
        algorithm: str = "mu_dbscan",
        extras: dict[str, Any] | None = None,
    ) -> "FittedModel":
        """Snapshot a finished :class:`MuDBSCANState` into an artifact.

        The MC arrays are the fit index's own (read-only) store arrays,
        shared, not copied."""
        murtree: MuRTree = state.murtree
        return cls(
            points=murtree.points,
            labels=state.uf.labels(noise_mask=state.final_noise_mask()),
            core_mask=state.core.copy(),
            point_mc=murtree.point_mc,
            center_rows=murtree.center_rows,
            member_offsets=murtree.member_offsets,
            member_flat=murtree.member_flat,
            reach_offsets=murtree.reach_offsets,
            reach_flat=murtree.reach_flat,
            params=state.params,
            metric_name=murtree.metric.name,
            algorithm=algorithm,
            counters=state.counters,
            extras=dict(extras or {}),
            meta={
                "created_unix": time.time(),
                "repro_version": __version__,
                "engine": "exact",
                "engine_options": {},
            },
            _murtree=murtree,  # fit-side index is already warm — reuse it
        )

    # ------------------------------------------------------------------
    # basic views

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def n_micro_clusters(self) -> int:
        return int(self.center_rows.shape[0])

    @property
    def metric(self) -> Metric:
        return get_metric(self.metric_name)

    @property
    def engine(self) -> str:
        """Clustering engine that produced the artifact.

        Read from the header's ``meta`` (recorded at fit time together
        with the engine's options under ``meta["engine_options"]``);
        artifacts from before the engine abstraction default to
        ``"exact"`` — the only engine that existed.
        """
        return str(self.meta.get("engine", "exact"))

    def version_token(self) -> str:
        """Stable short content hash identifying *this* model's answers.

        Two models with the same token answer every query identically
        (same points, labels, core flags, MC structure, parameters and
        engine tier), so the token is safe as a cache namespace: the
        query engine prefixes its LRU keys with it, and a hot swap to
        any different model can never resurface stale cached rows.
        Deterministic across processes — the fleet's workers and the
        front door agree on it without coordination.
        """
        if self._version_token is None:
            h = hashlib.sha256()
            for arr in (
                self.points, self.labels, self.core_mask, self.point_mc,
                self.center_rows, self.member_flat, self.reach_flat,
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(
                f"{self.params.eps}|{self.params.min_pts}|{self.metric_name}"
                f"|{self.engine}".encode()
            )
            self._version_token = h.hexdigest()[:16]
        return self._version_token

    # ------------------------------------------------------------------
    # shared-memory transport (the fleet's zero-copy load path)

    #: array attributes that make up the payload, in container order
    ARRAY_FIELDS = (
        "points", "labels", "core_mask", "point_mc", "center_rows",
        "member_offsets", "member_flat", "reach_offsets", "reach_flat",
    )

    def array_fields(self) -> dict[str, np.ndarray]:
        """The payload arrays by name — what goes into shared memory."""
        return {name: getattr(self, name) for name in self.ARRAY_FIELDS}

    def header_dict(self) -> dict[str, Any]:
        """The scalar state a worker needs alongside the shared arrays."""
        return {
            "eps": self.params.eps,
            "min_pts": self.params.min_pts,
            "metric": self.metric_name,
            "algorithm": self.algorithm,
            "counters": _jsonable(self.counters.to_dict()),
            "extras": _jsonable(self.extras),
            "meta": _jsonable(self.meta),
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], header: Mapping[str, Any]
    ) -> "FittedModel":
        """Rebuild a model from named arrays + a :meth:`header_dict`.

        The fleet worker path: the parent reads the artifact once,
        places the arrays in shared-memory segments, and each worker
        reconstructs its model directly over the mapped (read-only)
        views — ``__post_init__``'s canonicalisation keeps already-
        contiguous float64/int64 views as-is, so no copy is made.
        """
        missing = [name for name in cls.ARRAY_FIELDS if name not in arrays]
        if missing:
            raise ModelFormatError(f"payload is missing arrays: {missing}")
        return cls(
            **{name: arrays[name] for name in cls.ARRAY_FIELDS},
            params=DBSCANParams(
                eps=float(header["eps"]), min_pts=int(header["min_pts"])
            ),
            metric_name=str(header.get("metric", "euclidean")),
            algorithm=str(header.get("algorithm", "mu_dbscan")),
            counters=Counters.from_dict(header.get("counters", {})),
            extras=dict(header.get("extras", {})),
            meta=dict(header.get("meta", {})),
        )

    def member_rows(self, mc_id: int) -> np.ndarray:
        return self.member_flat[
            self.member_offsets[mc_id] : self.member_offsets[mc_id + 1]
        ]

    def reach_ids(self, mc_id: int) -> np.ndarray:
        return self.reach_flat[
            self.reach_offsets[mc_id] : self.reach_offsets[mc_id + 1]
        ]

    def to_result(self) -> ClusteringResult:
        """Rebuild the fit's :class:`ClusteringResult` view."""
        return ClusteringResult(
            labels=self.labels.copy(),
            core_mask=self.core_mask.copy(),
            params=self.params,
            algorithm=self.algorithm,
            counters=self.counters,
            timers=PhaseTimer(),
            extras=dict(self.extras),
        )

    def summary(self) -> str:
        pos = self.labels[self.labels >= 0]
        k = int(np.unique(pos).shape[0]) if pos.size else 0
        return (
            f"FittedModel[{self.algorithm}]: n={self.n} d={self.dim} "
            f"clusters={k} mcs={self.n_micro_clusters} "
            f"(eps={self.params.eps}, MinPts={self.params.min_pts}, "
            f"metric={self.metric_name}, engine={self.engine})"
        )

    # ------------------------------------------------------------------
    # routing table and μR-tree view

    @property
    def route_table(self) -> RouteTable:
        """The MC centers hashed into 2ε routing cells, built lazily.

        Prediction reads this table and the stored arrays only
        (:mod:`repro.serving.predict`).  Code that replaces the arrays
        in place, as :meth:`StreamingEngine.refresh
        <repro.serving.streaming.StreamingEngine.refresh>` does, must
        reset ``_route_table`` and ``_murtree`` to ``None``.
        """
        if self._route_table is None:
            self._route_table = RouteTable.build(self)
        return self._route_table

    @property
    def murtree(self) -> MuRTree:
        """A μR-tree view of the stored state, built lazily.

        Prediction never reads it: it is the fit's index structure,
        kept for inspection (:meth:`mc_kind_counts`) and for the
        round-trip tests.  It wraps the stored arrays with
        :meth:`MuRTree.from_arrays` and replays nothing: MC membership
        and the reachability lists are the stored CSRs, so
        ``serving_counters.micro_clusters`` stays 0 (Algorithm 3 never
        runs) and ``compute_reachability`` computes no distance
        (Algorithm 5 never runs).  Its ``mcs`` view reads no reach
        block until ``compute_reachability`` is called.
        """
        if self._murtree is None:
            self._murtree = MuRTree.from_arrays(
                self.points,
                self.params.eps,
                self.point_mc,
                self.center_rows,
                self.member_offsets,
                self.member_flat,
                self.reach_offsets,
                self.reach_flat,
                counters=self.serving_counters,
                metric=self.metric,
            )
        return self._murtree

    def mc_kind_counts(self) -> dict[str, int]:
        """DMC/CMC/SMC split of the stored micro-clusters."""
        return self.murtree.kind_counts(self.params.min_pts)

    # ------------------------------------------------------------------
    # persistence

    def to_bytes(self) -> bytes:
        """Serialize to the versioned binary container."""
        buf = io.BytesIO()
        np.savez_compressed(buf, **self.array_fields())
        payload = buf.getvalue()
        header = {
            "format_version": FORMAT_VERSION,
            "checksum": "sha256:" + hashlib.sha256(payload).hexdigest(),
            "algorithm": self.algorithm,
            "n": self.n,
            "dim": self.dim,
            "n_micro_clusters": self.n_micro_clusters,
            "eps": self.params.eps,
            "min_pts": self.params.min_pts,
            "metric": self.metric_name,
            "counters": _jsonable(self.counters.to_dict()),
            "extras": _jsonable(self.extras),
            "meta": _jsonable(self.meta),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        return MAGIC + _HEADER_STRUCT.pack(len(header_bytes)) + header_bytes + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FittedModel":
        """Parse, verify and reconstruct a model from container bytes."""
        prefix_len = len(MAGIC) + _HEADER_STRUCT.size
        if len(blob) < prefix_len:
            raise ModelFormatError("file too short to be a model artifact")
        if blob[: len(MAGIC)] != MAGIC:
            raise ModelFormatError(
                f"bad magic {blob[:len(MAGIC)]!r} (expected {MAGIC!r})"
            )
        (header_len,) = _HEADER_STRUCT.unpack(
            blob[len(MAGIC) : prefix_len]
        )
        if len(blob) < prefix_len + header_len:
            raise ModelFormatError("truncated header")
        try:
            header = json.loads(blob[prefix_len : prefix_len + header_len])
        except (ValueError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"unparseable header: {exc}") from exc
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        payload = blob[prefix_len + header_len :]
        expected = header.get("checksum", "")
        actual = "sha256:" + hashlib.sha256(payload).hexdigest()
        if expected != actual:
            raise ModelFormatError(
                f"payload checksum mismatch: header says {expected}, "
                f"payload hashes to {actual} — refusing to load"
            )
        try:
            with np.load(io.BytesIO(payload)) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except Exception as exc:  # zipfile/np.load raise various types
            raise ModelFormatError(f"unreadable payload: {exc}") from exc
        return cls.from_arrays(arrays, header)

    def save(self, path: str | Path) -> Path:
        """Write the artifact to ``path`` (atomic rename)."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(self.to_bytes())
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        """Read and verify an artifact written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no such model file: {path}")
        return cls.from_bytes(path.read_bytes())


@deprecated_alias(minpts="min_pts", min_samples="min_pts")
def fit_model(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    engine: str | Any = "exact",
    metric: str | Metric = EUCLIDEAN,
    block_size: int = DEFAULT_BLOCK_SIZE,
    **mu_kwargs: Any,
) -> FittedModel:
    """Fit the selected engine and package the run as a
    :class:`FittedModel`.

    ``engine="exact"`` (default) accepts the same knobs as
    :func:`repro.core.mudbscan.mu_dbscan` (including ``block_size`` /
    ``builder_block_size``); ``"sampled"`` / ``"summary"`` additionally
    take their engine options (``sample_fraction``, ``selection``,
    ``seed`` / ``link_factor`` — docs/ENGINES.md) and drop the
    exact-pipeline ablation switches.  The artifact header records the
    engine and its options, so a loaded model reports its provenance
    and predicts without a refit whatever tier produced it.  Float32
    (or any numeric) input is canonicalised to float64, the repo-wide
    coordinate dtype.
    """
    if engine != "exact":
        from repro.engines import resolve_engine

        eng, fit_opts = resolve_engine(engine, {**mu_kwargs, "metric": metric,
                                                "block_size": block_size})
        return eng.fit_model(points, eps, min_pts, **fit_opts)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    counters = Counters()
    with maybe_span(
        "fit", n=int(pts.shape[0]), eps=eps, min_pts=min_pts, engine="exact"
    ):
        state, timers = run_mu_dbscan_state(
            pts,
            params,
            metric=metric,
            block_size=block_size,
            counters=counters,
            **mu_kwargs,
        )
    publish_run(get_registry(), counters, timers, algorithm="mu_dbscan")
    murtree = state.murtree
    extras = {
        ExtraKeys.N_MICRO_CLUSTERS: murtree.n_micro_clusters,
        ExtraKeys.AVG_MC_SIZE: murtree.avg_mc_size,
        ExtraKeys.N_WNDQ_CORE: len(state.wndq_corelist),
        ExtraKeys.MC_KIND_COUNTS: murtree.kind_counts(params.min_pts),
        ExtraKeys.METRIC: murtree.metric.name,
        ExtraKeys.FIT_SECONDS: timers.total(),
    }
    return FittedModel.from_state(state, extras=extras)


def save_model(model: FittedModel, path: str | Path) -> Path:
    """Module-level alias of :meth:`FittedModel.save`."""
    return model.save(path)


def load_model(path: str | Path) -> FittedModel:
    """Module-level alias of :meth:`FittedModel.load`."""
    return FittedModel.load(path)
