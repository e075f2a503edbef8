"""Polyhedral dependence analysis.

Dependences are represented exactly, as relations between pairs of statement
iterations (Section IV-A-1 of the paper): a
:class:`~repro.deps.relation.DependenceRelation` carries a polyhedron over
the renamed source/target iteration vectors and the kernel parameters.

:func:`~repro.deps.analysis.compute_dependences` builds all flow, anti and
output relations, split by lexicographic precedence level of the original
2d+1 execution order, so each relation is a single convex set — the form
the Farkas-based constraint builders require.
"""

from repro.deps.relation import DependenceRelation, source_dim, target_dim
from repro.deps.analysis import compute_dependences
from repro.deps.graph import DependenceGraph

__all__ = [
    "DependenceRelation",
    "compute_dependences",
    "DependenceGraph",
    "source_dim",
    "target_dim",
]
