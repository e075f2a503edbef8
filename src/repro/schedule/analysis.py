"""Post-hoc schedule analysis: satisfaction depths, validity verification,
parallelism annotation.

The multidimensional semantics (Section III-B): a dependence relation is
*strongly satisfied* at the first dimension ``d`` where, restricted to pairs
whose dates agree on dimensions ``< d``, the schedule-time delta is >= 1 on
every remaining pair.  A schedule is valid iff every validity relation is
strongly satisfied at some dimension and never reversed before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.deps.relation import DependenceRelation
from repro.schedule.functions import Schedule


def satisfaction_depth(rel: DependenceRelation,
                       schedule: Schedule) -> Optional[int]:
    """First dimension at which ``rel`` is strongly satisfied, or None.

    Assumes (does not check) that the schedule weakly satisfies the relation
    at every dimension; use :func:`verify_schedule` for full checking.
    """
    poly = rel.polyhedron
    for d in range(schedule.n_dims):
        phi_s = schedule.rows[rel.source.name][d].as_expr()
        phi_t = schedule.rows[rel.target.name][d].as_expr()
        delta = rel.delta_expr(phi_s, phi_t)
        poly = poly.with_constraints([delta.eq(0)])
        if poly.is_empty():
            return d
    return None


@dataclass
class ScheduleViolation:
    """One semantics violation found by :func:`verify_schedule`."""

    relation: DependenceRelation
    dimension: Optional[int]  # dimension where the order is reversed, or
                              # None when the relation is never satisfied
    reason: str

    def __str__(self):
        return f"{self.relation}: {self.reason}"


def verify_schedule(schedule: Schedule,
                    relations: Iterable[DependenceRelation]) -> list[ScheduleViolation]:
    """Exhaustively check semantics preservation.

    For every relation: walking the dimensions, the delta restricted to
    previously-tied pairs must never be negative, and the relation must be
    strongly satisfied at some dimension.  Returns all violations (empty
    list == valid schedule).
    """
    violations = []
    for rel in relations:
        poly = rel.polyhedron
        satisfied = False
        for d in range(schedule.n_dims):
            phi_s = schedule.rows[rel.source.name][d].as_expr()
            phi_t = schedule.rows[rel.target.name][d].as_expr()
            delta = rel.delta_expr(phi_s, phi_t)
            if not poly.with_constraints([delta <= -1]).is_empty():
                violations.append(ScheduleViolation(
                    rel, d, f"order reversed at dimension {d}"))
                satisfied = True  # do not double-report
                break
            poly = poly.with_constraints([delta.eq(0)])
            if poly.is_empty():
                satisfied = True
                break
        if not satisfied:
            violations.append(ScheduleViolation(
                rel, None, "never strongly satisfied (incomplete order)"))
    return violations


def annotate_parallelism(schedule: Schedule,
                         relations: Iterable[DependenceRelation]) -> None:
    """Set each dimension's ``parallel`` flag.

    Dimension ``d`` is parallel iff no validity relation is *carried* at
    ``d``: restricted to pairs tied on dimensions ``< d``, the delta at
    ``d`` is identically zero for every relation still alive there.
    """
    alive = [(r, r.polyhedron) for r in relations]
    for d in range(schedule.n_dims):
        carried = False
        next_alive = []
        for rel, poly in alive:
            phi_s = schedule.rows[rel.source.name][d].as_expr()
            phi_t = schedule.rows[rel.target.name][d].as_expr()
            delta = rel.delta_expr(phi_s, phi_t)
            if not poly.with_constraints([delta >= 1]).is_empty():
                carried = True
            remaining = poly.with_constraints([delta.eq(0)])
            if not remaining.is_empty():
                next_alive.append((rel, remaining))
        schedule.dims[d].parallel = not carried
        alive = next_alive
