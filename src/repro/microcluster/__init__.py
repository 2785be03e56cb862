"""Micro-clusters and the two-level μR-tree (paper §IV-A/B, Fig. 1-3).

A micro-cluster (MC) is an ε-ball around a chosen *center point*
together with the dataset points assigned to it; every point belongs to
exactly one MC.  The production pipeline holds all MCs as one flat
store of arrays (member CSR, centers, MBRs, inner circles, reach and
block CSRs) on the μR-tree; per-MC objects are an inspection view.
The subpackage provides:

* :class:`~repro.microcluster.microcluster.MicroCluster` — the MC
  record, its inner circle, and the DMC/CMC/SMC classification, and
  :func:`~repro.microcluster.microcluster.freeze_arrays`, which derives
  the store's query-side arrays from the member CSR,
* :func:`~repro.microcluster.builder.build_micro_cluster_arrays` —
  Algorithm 3 (including the 2ε ``unassignedList`` deferral rule), and
  :func:`~repro.microcluster.builder.build_micro_clusters`, its
  per-MC object and first-level R-tree view,
* :class:`~repro.microcluster.murtree.MuRTree` — the two-level index
  over the store, with reachability-restricted exact ε-neighborhood
  queries,
* :func:`~repro.microcluster.reachability.compute_reachable` —
  Algorithm 5 (3ε center-to-center reachability lists, as a CSR).
"""

from repro.microcluster.microcluster import MicroCluster, MCKind, freeze_arrays
from repro.microcluster.builder import build_micro_cluster_arrays, build_micro_clusters
from repro.microcluster.murtree import MuRTree
from repro.microcluster.reachability import compute_reachable

__all__ = [
    "MicroCluster",
    "MCKind",
    "freeze_arrays",
    "build_micro_cluster_arrays",
    "build_micro_clusters",
    "MuRTree",
    "compute_reachable",
]
