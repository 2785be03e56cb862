"""Disjoint-set (union-find) structures.

The paper follows Patwary et al. in replacing DBSCAN's sequential
cluster-expansion with union-find merges: every density connection is a
``UNION``, and clusters are the final components.  :class:`UnionFind`
is the one implementation: list-backed, path halving, smallest-root
linking (so roots do not depend on the order of unions).  Callers merge
one pair (``union``), one star (``union_many``) or a whole phase's edge
arrays in one pass (``union_edges``), and :func:`dense_first_appearance`
is the one relabel to dense ``0..k-1`` cluster ids.  The distributed
variant resolves cross-partition unions collected during local
clustering (``repro.unionfind.distributed``).
"""

from repro.unionfind.unionfind import UnionFind, dense_first_appearance
from repro.unionfind.distributed import GlobalLabeler, resolve_cross_edges

__all__ = ["UnionFind", "GlobalLabeler", "dense_first_appearance", "resolve_cross_edges"]
