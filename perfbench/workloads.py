"""The benchmark's workloads and the inputs each one makes from a seed.

Every workload runs the whole user path: fit a model on a dataset, check
it, save it, then serve it over HTTP under one traffic mix.  The two
workloads differ in both things the layers care about:

* ``blobs_hot`` — a dataset of few large micro-clusters, where Algorithm 7
  dominates the fit, served with traffic that repeats from a pool held
  in the per-worker LRU, so the fixed per-request cost dominates;
* ``halos_fresh`` — a dataset of many small micro-clusters, where
  reachability and tree construction dominate the fit, served with
  never-repeated query points, so the LRU is bypassed and prediction
  dominates.

The fit input is the same for every seed; the seed draws the traffic.
Query points come from a kernel-density estimate of the training data:
a random training point plus Gaussian jitter of ε/4 per axis.  They
follow the data's density and are never equal to a training point or
to each other; perfbench/README.md compares them with points held out
from the generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: points per HTTP request
BATCH = 16
#: distinct points the hot traffic repeats (fits the 4,096-entry LRU)
HOT_POOL = 2048
#: fresh requests sent serially before timing, to warm code paths
FRESH_WARMUP = 32
#: fresh requests generated per chunk (the fresh stream is drawn in
#: fixed chunks so its prefix does not depend on how much a run uses)
FRESH_CHUNK = 512


@dataclass(frozen=True)
class Dataset:
    name: str
    eps: float
    min_pts: int


BLOBS = Dataset("blobs", eps=0.08, min_pts=60)
BLOBS_LEDGER_ARGS = dict(n=20000, dim=3, n_blobs=8, noise_fraction=0.2, seed=1)
HALOS = Dataset("halos", eps=1.0, min_pts=5)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: Dataset
    traffic: str  # "fresh" | "hot"
    #: offered rate (req/s) of the fixed-rate steps: a fifth to a quarter
    #: of the HTTP knee measured when the benchmark was added, low enough
    #: that queueing, which swings with the host's speed, adds little to
    #: the latency percentiles
    fixed_rate: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("blobs_hot", BLOBS, "hot", fixed_rate=160.0),
        Workload("halos_fresh", HALOS, "fresh", fixed_rate=42.0),
    )
}


def training_points(dataset: Dataset) -> np.ndarray:
    """The fit input, the same for every seed.

    ``blobs`` is ``blobs_with_noise(20000, 3, 8, noise_fraction=0.2,
    seed=1)``, the BENCH_LEDGER workload (:func:`ledger_fingerprint`);
    ``halos`` is the registry's ``MPAGD100M3D`` at scale 1.5 (18,000
    points).  The seed draws the traffic, not the fit input: generator
    seeds change the workload itself (one blob layout in five nearly
    doubled the fit's peak RSS), which no run-to-run bound could hold.
    """
    if dataset is BLOBS:
        from repro.data.synthetic import blobs_with_noise

        return blobs_with_noise(**BLOBS_LEDGER_ARGS)
    from repro.data.registry import REGISTRY

    spec = REGISTRY["MPAGD100M3D"]
    if (spec.eps, spec.min_pts) != (HALOS.eps, HALOS.min_pts):
        raise ValueError(f"registry parameters changed: {spec}")
    return spec.generate(scale=1.5)


def ledger_fingerprint(dataset: Dataset) -> str | None:
    """The BENCH_LEDGER fingerprint of the fit input (blobs only), so a
    result can be matched with the ledger's history."""
    if dataset is not BLOBS:
        return None
    from repro.observability.ledger import workload_fingerprint

    a = BLOBS_LEDGER_ARGS
    return workload_fingerprint({
        "dim": a["dim"], "eps": BLOBS.eps, "min_pts": BLOBS.min_pts,
        "n_blobs": a["n_blobs"], "n_points": a["n"],
        "noise_fraction": a["noise_fraction"], "seed": a["seed"],
    })


def kde_points(train: np.ndarray, n: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` points from a Gaussian KDE of ``train`` (bandwidth ε/4)."""
    rows = rng.integers(0, train.shape[0], n)
    return train[rows] + rng.normal(0.0, eps / 4.0, size=(n, train.shape[1]))


class Traffic:
    """The query batches of one run, deterministic in the seed.

    Each request carries ``BATCH`` points named by *keys*: rows of
    :meth:`pool`, the points whose oracle answers the run is checked
    against.  Hot traffic draws its keys from a fixed ``HOT_POOL``-point
    pool; fresh traffic hands out pool rows that were never used before,
    growing the pool in fixed chunks so its prefix does not depend on
    how much of it a run consumes.
    """

    def __init__(self, workload: Workload, train: np.ndarray, seed: int) -> None:
        self.hot = workload.traffic == "hot"
        self._train = train
        self._eps = workload.dataset.eps
        self._seed = seed
        self._chunks: list[np.ndarray] = []
        self._used = 0  # fresh rows handed out / hot draws made
        if self.hot:
            self._chunks.append(
                kde_points(train, HOT_POOL, self._eps, np.random.default_rng([seed, 1]))
            )

    def pool(self) -> np.ndarray:
        """Every point a key so far can name."""
        if not self._chunks:
            return np.empty((0, self._train.shape[1]))
        return np.concatenate(self._chunks)

    def warmup(self) -> np.ndarray:
        """Keys sent serially before timing: the whole hot pool, so every
        worker cache holds its shard's share; for fresh traffic a few
        never-repeated requests that only warm the code paths."""
        if not self.hot:
            return self.take(FRESH_WARMUP)
        return np.arange(HOT_POOL).reshape(-1, BATCH)

    def take(self, n_requests: int) -> np.ndarray:
        """``(n_requests, BATCH)`` keys for the next requests."""
        if self.hot:
            rng = np.random.default_rng([self._seed, 3, self._used])
            self._used += 1
            return rng.integers(0, HOT_POOL, size=(n_requests, BATCH))
        rows = n_requests * BATCH
        while sum(c.shape[0] for c in self._chunks) < self._used + rows:
            rng = np.random.default_rng([self._seed, 2, len(self._chunks)])
            self._chunks.append(
                kde_points(self._train, FRESH_CHUNK * BATCH, self._eps, rng)
            )
        keys = np.arange(self._used, self._used + rows).reshape(n_requests, BATCH)
        self._used += rows
        return keys


def fingerprint(*arrays: np.ndarray, **params) -> str:
    """Short hash of generated inputs and the parameters that made them."""
    h = hashlib.sha256(repr(sorted(params.items())).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]
