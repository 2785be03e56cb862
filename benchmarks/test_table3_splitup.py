"""Table III — % split-up of execution time of μDBSCAN's steps.

Paper rows: 3DSRN, DGB0.5M3D, MPAGB6M3D, KDDB145K14D over four phases
(tree construction / finding reachable groups / clustering / post
core & noise processing).  The paper's shape: post-processing dominates
on the high-query-save datasets (3DSRN, KDDB — 63% and 97%), and tree
construction is a substantial share on the many-micro-cluster datasets.
Here only the grouping of post-processing shares across datasets
reproduces — 3DSRN and KDDB high, MPAGB and DGB low (EXPERIMENTS.md,
Table III).
"""

from __future__ import annotations

import pytest

import common
from repro import mu_dbscan

DATASETS = ["3DSRN", "DGB0.5M3D", "MPAGB6M3D", "KDDB145K14D"]

PHASES = [
    "tree_construction",
    "finding_reachable_groups",
    "clustering",
    "post_processing",
]

#: the paper's published percentages, same phase order
PAPER_SPLIT = {
    "3DSRN": [31.49, 0.08, 10.06, 63.09],
    "DGB0.5M3D": [20.46, 27.73, 15.27, 36.53],
    "MPAGB6M3D": [15.11, 13.92, 13.55, 57.42],
    "KDDB145K14D": [0.75, 0.01, 2.56, 96.68],
}

_splits: dict[str, dict[str, float]] = {}


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_table3(benchmark, dataset_name: str) -> None:
    pts, spec = common.dataset(dataset_name)
    result = benchmark.pedantic(
        lambda: mu_dbscan(pts, spec.eps, spec.min_pts), rounds=1, iterations=1
    )
    split = result.timers.percent_split()
    _splits[dataset_name] = split
    assert set(split) == set(PHASES)
    assert sum(split.values()) == pytest.approx(100.0, abs=0.1)


def _render() -> str:
    headers = ["dataset"] + [f"{p} (paper)" for p in PHASES]
    rows = []
    for name in DATASETS:
        split = _splits.get(name)
        if split is None:
            continue
        cells = [
            f"{split[p]:.1f}% ({PAPER_SPLIT[name][i]:.1f}%)"
            for i, p in enumerate(PHASES)
        ]
        rows.append([name] + cells)
    return common.simple_table(
        headers, rows,
        title="Table III reproduction - muDBSCAN phase split, measured (paper)",
    )


common.register_report("Table III - muDBSCAN step split-up", _render)
