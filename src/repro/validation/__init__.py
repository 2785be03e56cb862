"""Correctness checks and clustering-quality metrics.

:mod:`repro.validation.exactness` encodes the paper's definition of an
*exact* DBSCAN variant (§III): same core points, same core-point
cluster membership, same cluster count — plus the noise condition and a
border-validity check.  :mod:`repro.validation.metrics` quantifies the
quality gap of the *approximate* baselines (HPDBSCAN-like,
RP-DBSCAN-like) against an exact clustering.
:mod:`repro.validation.quality` sweeps the dataset registry to score
the approximate clustering engines (``sampled`` / ``summary``) against
the exact engine — the ARI gate that CI enforces.
:mod:`repro.validation.reference` keeps the paper's per-point pipeline
(scan builder, tree-probe reachability, one query per point) that the
production paths are compared against; import it by its module path.
"""

from repro.validation.exactness import (
    ExactnessReport,
    WindowParityReport,
    assert_exact,
    assert_window_parity,
    canonical_labels,
    check_exact,
    check_window_parity,
)
from repro.validation.definition import DefinitionReport, validate_definition
from repro.validation.metrics import (
    rand_index,
    adjusted_rand_index,
    normalized_mutual_info,
    cluster_count_drift,
    label_sets_equal,
)
from repro.validation.quality import (
    ARI_GATE,
    QualityRecord,
    quality_sweep,
    quality_gate_failures,
)

__all__ = [
    "ExactnessReport",
    "DefinitionReport",
    "validate_definition",
    "check_exact",
    "assert_exact",
    "WindowParityReport",
    "canonical_labels",
    "check_window_parity",
    "assert_window_parity",
    "rand_index",
    "adjusted_rand_index",
    "normalized_mutual_info",
    "cluster_count_drift",
    "label_sets_equal",
    "ARI_GATE",
    "QualityRecord",
    "quality_sweep",
    "quality_gate_failures",
]
