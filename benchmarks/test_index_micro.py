"""Index microbenchmarks — the query-substrate comparison behind it all.

Not a paper table, but the engineering ground truth the paper's design
arguments rest on: how expensive is one exact ε-query under each index,
and how does the μR-tree's restricted search compare?  Reported per
1000 queries on the DGB galaxy stand-in.  Two construction cases ride
along: AuxR-tree bulk loading, and Algorithm 3's micro-cluster builder
on the perfbench fit inputs and a sorted chain.
"""

from __future__ import annotations

import numpy as np
import pytest

import common
from repro.index.brute import BruteIndex
from repro.index.grid import UniformGrid
from repro.index.kdtree import KDTree
from repro.index.rtree import PointRTree
from repro.microcluster.builder import build_micro_cluster_arrays
from repro.microcluster.murtree import MuRTree

DATASET = "DGB0.5M3D"
N_QUERIES = 1000

_times: dict[str, tuple[float, int]] = {}


def _queries(pts: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.choice(pts.shape[0], size=min(N_QUERIES, pts.shape[0]), replace=False)


@pytest.fixture(scope="module")
def workload():
    pts, spec = common.dataset(DATASET)
    return pts, spec.eps, _queries(pts)


def _record(benchmark, name: str, n_queries: int = N_QUERIES) -> None:
    _times[name] = (benchmark.stats["mean"], n_queries)


def test_micro_brute(benchmark, workload):
    pts, eps, rows = workload
    index = BruteIndex(pts)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "brute")


def test_micro_rtree(benchmark, workload):
    pts, eps, rows = workload
    index = PointRTree(pts)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "rtree")


def test_micro_kdtree(benchmark, workload):
    pts, eps, rows = workload
    index = KDTree(pts)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "kdtree")


def test_micro_grid(benchmark, workload):
    pts, eps, rows = workload
    index = UniformGrid(pts, cell_width=eps)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "grid")


def test_micro_murtree_cached(benchmark, workload):
    pts, eps, rows = workload
    tree = MuRTree(pts, eps)  # cached mode
    tree.compute_reachability()
    benchmark.pedantic(
        lambda: [tree.query_ball(int(r)) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "murtree(cached)")


def test_micro_murtree_flat(benchmark, workload):
    pts, eps, rows = workload
    tree = MuRTree(pts, eps, aux_index="flat")
    tree.compute_reachability()
    benchmark.pedantic(
        lambda: [tree.query_ball(int(r)) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "murtree(flat)")


def test_micro_murtree_block(benchmark, workload):
    """The MC-batched engine's access pattern: take the MCs of the
    sampled rows and answer *every member* of each with one
    ``query_ball_block`` distance matrix per MC — the grouping the
    clustering phase performs (scattered single-row groups would only
    measure the call overhead)."""
    pts, eps, rows = workload
    tree = MuRTree(pts, eps)  # cached mode
    tree.compute_reachability()
    mc_ids = sorted({int(tree.point_mc[r]) for r in rows})
    groups = [tree.member_rows(m) for m in mc_ids]
    n_queries = int(sum(g.shape[0] for g in groups))

    def run():
        return [
            tree.query_ball_block(m, g) for m, g in zip(mc_ids, groups)
        ]

    benchmark.pedantic(run, rounds=1, iterations=1)
    _record(benchmark, "murtree(block)", n_queries)


# ---------------------------------------------------------------------------
# AuxR-tree construction: STR bulk load vs one-by-one Guttman inserts.
# Membership is final when the per-MC trees are built, so the static
# packing should win — this case quantifies by how much.

AUX_BUILD_N = 20_000

_build_times: dict[str, float] = {}


@pytest.fixture(scope="module")
def aux_workload(workload):
    """The member slices of the MCs of a subsample, one AuxR-tree each."""
    pts, eps, _ = workload
    rng = np.random.default_rng(1)
    keep = rng.choice(pts.shape[0], size=min(AUX_BUILD_N, pts.shape[0]), replace=False)
    tree = MuRTree(pts[keep], eps)
    bounds = tree.member_offsets.tolist()
    return [
        (tree.member_points[lo:hi], tree.member_flat[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _build_aux_trees(slices, bulk: bool) -> list[PointRTree]:
    return [PointRTree(coords, ids=rows, bulk=bulk) for coords, rows in slices]


def test_micro_aux_build_bulk(benchmark, aux_workload):
    benchmark.pedantic(
        lambda: _build_aux_trees(aux_workload, bulk=True), rounds=1, iterations=1
    )
    _build_times["bulk (STR)"] = benchmark.stats["mean"]


def test_micro_aux_build_incremental(benchmark, aux_workload):
    benchmark.pedantic(
        lambda: _build_aux_trees(aux_workload, bulk=False), rounds=1, iterations=1
    )
    _build_times["incremental"] = benchmark.stats["mean"]


def _render_build() -> str:
    if not _build_times:
        return ""
    rows = [
        [name, f"{secs:.3f} s"]
        for name, secs in sorted(_build_times.items(), key=lambda kv: kv[1])
    ]
    if len(_build_times) == 2:
        fast, slow = sorted(_build_times.values())
        rows.append(["speedup", f"{slow / fast:.2f}x"])
    return common.simple_table(
        ["AuxR-tree build", "seconds"],
        rows,
        title=(
            f"per-MC AuxR-tree construction on a {AUX_BUILD_N}-point "
            f"{DATASET} subsample (trees only; the MCs are built once)"
        ),
    )


common.register_report("AuxR-tree bulk loading", _render_build)


# ---------------------------------------------------------------------------
# Algorithm 3's builder on the perfbench fit inputs and on its worst case:
# ``halos`` founds nearly every MC in vectorized rounds, each ``blobs``
# block hands its founders to the walk after one round, and a sorted
# chain walks throughout (each founder waits on the one before it).

BUILDER_ROUNDS = 5

_builder_times: dict[str, tuple[float, int, int]] = {}


def _builder_input(case: str) -> tuple[np.ndarray, float]:
    if case == "halos":  # perfbench's halos: MPAGD100M3D at scale 1.5
        pts, spec = common.dataset("MPAGD100M3D", scale=1.5)
        return pts, spec.eps
    if case == "blobs":  # perfbench's blobs
        from repro.data.synthetic import blobs_with_noise

        return blobs_with_noise(20000, 3, 8, noise_fraction=0.2, seed=1), 0.08
    return np.stack([np.arange(20000) * 0.7, np.zeros(20000)], axis=1), 1.0


@pytest.mark.parametrize("case", ["halos", "blobs", "chain"])
def test_micro_builder(benchmark, case):
    pts, eps = _builder_input(case)
    _, center_rows, _, _ = benchmark.pedantic(
        lambda: build_micro_cluster_arrays(pts, eps),
        rounds=BUILDER_ROUNDS,
        iterations=1,
    )
    _builder_times[case] = (benchmark.stats["median"], pts.shape[0], center_rows.size)


def _render_builder() -> str:
    if not _builder_times:
        return ""
    rows = [
        [case, n, mcs, f"{secs:.3f} s"]
        for case, (secs, n, mcs) in _builder_times.items()
    ]
    return common.simple_table(
        ["input", "points", "MCs", "median"],
        rows,
        title=(
            "build_micro_cluster_arrays (Algorithm 3), median wall of "
            f"{BUILDER_ROUNDS} calls; the chain is 20,000 points 0.7ε apart"
        ),
    )


common.register_report("Micro-cluster builder", _render_builder)


def _render() -> str:
    if not _times:
        return ""
    rows = [
        [name, f"{secs * 1e6 / n:.1f} us"]
        for name, (secs, n) in sorted(
            _times.items(), key=lambda kv: kv[1][0] / kv[1][1]
        )
    ]
    return common.simple_table(
        ["index", "per eps-query"],
        rows,
        title=(
            f"index microbenchmark - exact eps-queries on {DATASET} "
            f"(~{N_QUERIES} member-point queries; the block row amortises "
            "whole-MC groups)"
        ),
    )


common.register_report("Index microbenchmark", _render)
