"""Dependence relations between statement iterations.

A relation ``delta_{S -> T}`` is a polyhedron over the dimensions

* ``src(it)`` for every iterator of the source statement,
* ``tgt(it)`` for every iterator of the target statement,
* the kernel parameters (shared, unrenamed),

containing exactly the pairs ``<s, t>`` such that iteration ``t`` of the
target depends on iteration ``s`` of the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ir.access import Access
from repro.ir.statement import Statement
from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import LinExpr


def source_dim(iterator: str) -> str:
    """Renamed dimension for a source iterator."""
    return f"{iterator}__s"


def target_dim(iterator: str) -> str:
    """Renamed dimension for a target iterator."""
    return f"{iterator}__t"


def rename_expr(expr: LinExpr, iterators: list[str], suffix: str) -> LinExpr:
    """Rename the iterator variables of ``expr`` with the given renamer."""
    renamer = source_dim if suffix == "s" else target_dim
    coeffs = {}
    for name, c in expr.coeffs.items():
        coeffs[renamer(name) if name in iterators else name] = c
    return LinExpr._raw(coeffs, expr.const)


@dataclass
class DependenceRelation:
    """One convex dependence relation ``delta_{source -> target}``."""

    source: Statement
    target: Statement
    kind: str  # "flow" | "anti" | "output" | "input"
    polyhedron: Polyhedron
    level: int  # lexicographic precedence level in the interleaved order
    source_access: Access
    target_access: Access

    KINDS = ("flow", "anti", "output", "input")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"bad dependence kind {self.kind!r}")

    @property
    def tensor_name(self) -> str:
        return self.source_access.tensor.name

    @property
    def is_self(self) -> bool:
        return self.source.name == self.target.name

    # -- schedule-row queries ------------------------------------------------
    #
    # A schedule row phi is a LinExpr over a statement's iterators and the
    # parameters.  The scheduler asks whether phi_T - phi_S >= delta holds
    # for every pair in the relation; we answer exactly by testing whether
    # the negation intersected with the relation is (integer-)empty.

    def delta_expr(self, phi_source: LinExpr, phi_target: LinExpr) -> LinExpr:
        """``phi_T(t) - phi_S(s)`` over the relation's renamed dimensions."""
        src = rename_expr(phi_source, self.source.iterators, "s")
        tgt = rename_expr(phi_target, self.target.iterators, "t")
        return tgt - src

    def weakly_satisfied_by(self, phi_source: LinExpr, phi_target: LinExpr) -> bool:
        """True iff ``phi_T(t) - phi_S(s) >= 0`` on the whole relation."""
        delta = self.delta_expr(phi_source, phi_target)
        violation = self.polyhedron.with_constraints([delta <= -1])
        return violation.is_empty()

    def strongly_satisfied_by(self, phi_source: LinExpr, phi_target: LinExpr) -> bool:
        """True iff ``phi_T(t) - phi_S(s) >= 1`` on the whole relation."""
        delta = self.delta_expr(phi_source, phi_target)
        violation = self.polyhedron.with_constraints([delta <= 0])
        return violation.is_empty()

    def zero_distance_on(self, phi_source: LinExpr, phi_target: LinExpr) -> bool:
        """True iff ``phi_T(t) == phi_S(s)`` on the whole relation
        (the coincidence/space-partition condition of Lim & Lam)."""
        delta = self.delta_expr(phi_source, phi_target)
        above = self.polyhedron.with_constraints([delta >= 1])
        below = self.polyhedron.with_constraints([delta <= -1])
        return above.is_empty() and below.is_empty()

    def __str__(self):
        return (f"{self.kind}:{self.source.name}->{self.target.name}"
                f"@{self.tensor_name}(level {self.level})")
