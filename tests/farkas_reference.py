"""Test-only references: raw Farkas emission and the restart-scan presolve.

This is how scheduling ILPs were posed before multipliers were eliminated
once per dependence: ``raw_farkas_nonneg`` declares every multiplier as a
continuous column and adds the unreduced coefficient-matching equalities,
and ``restart_scan_presolved`` eliminates pinned continuous columns with a
scan that restarts from the first row after every elimination.
``repro.solver.problem.eliminate_pinned`` must reproduce exactly what
``restart_scan_presolved`` produces (``tests/test_presolve_parity.py``),
and the projected blocks of ``repro.schedule.farkas`` must decide every
dimension ILP as ``raw_farkas_nonneg`` does
(``tests/test_farkas_lp_identity.py``, ``tests/test_farkas.py``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.schedule.farkas import (
    SymbolicAffineForm,
    _eliminate_equalities,
    _normalized_inequalities,
)
from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import Constraint, LinExpr, Problem


def raw_farkas_nonneg(problem: Problem, prefix: str, poly: Polyhedron,
                      form: SymbolicAffineForm) -> int:
    """Add the unreduced Farkas block of ``form >= 0`` on ``poly``; returns
    the number of multipliers declared."""
    equalities, inequalities = _normalized_inequalities(poly)
    dims, inequalities, form = _eliminate_equalities(
        poly.dims, equalities, inequalities, form)

    lambda0_name = f"{prefix}.l0"
    problem.add_variable(lambda0_name, lower=0, integer=False)
    multiplier_names = []
    for k, _ in enumerate(inequalities):
        name = f"{prefix}.l{k + 1}"
        problem.add_variable(name, lower=0, integer=False)
        multiplier_names.append(name)

    for dim in dims:
        base = form.coefficient(dim)
        coeffs = dict(base.coeffs)
        for name, g in zip(multiplier_names, inequalities):
            c = g.coeffs.get(dim)
            if c:
                coeffs[name] = -c
        problem.add_constraint(
            Constraint(LinExpr._raw(coeffs, base.const), "=="))

    coeffs = dict(form.const.coeffs)
    coeffs[lambda0_name] = Fraction(-1)
    for name, g in zip(multiplier_names, inequalities):
        if g.const:
            coeffs[name] = -g.const
    problem.add_constraint(
        Constraint(LinExpr._raw(coeffs, form.const.const), "=="))
    return len(multiplier_names) + 1


def restart_scan_presolved(problem: Problem,
                           protect: Optional[set[str]] = None
                           ) -> tuple[Problem, list[tuple[str, LinExpr]]]:
    """``Problem.presolved`` as a scan restarted after every elimination."""
    protect = protect or set()
    constraints = list(problem._constraints)
    lower = dict(problem._lower)
    upper = dict(problem._upper)
    eliminated: list[tuple[str, LinExpr]] = []
    removed: set[str] = set()

    progress = True
    while progress:
        progress = False
        for idx, c in enumerate(constraints):
            if c.sense != "==":
                continue
            victim = None
            for name in c.expr.coeffs:
                if (not problem._integer[name] and name not in protect
                        and name not in removed):
                    victim = name
                    break
            if victim is None:
                continue
            k = c.expr.coeffs[victim]
            scale = Fraction(-1) / k
            expr = LinExpr._raw(
                {n: scale * v for n, v in c.expr.coeffs.items()
                 if n != victim},
                scale * c.expr.const)
            eliminated.append((victim, expr))
            removed.add(victim)
            replacement: list[Constraint] = []
            if lower[victim] is not None:
                replacement.append(expr >= lower[victim])
            if upper[victim] is not None:
                replacement.append(expr <= upper[victim])
            zero = Fraction(0)
            new_constraints = []
            for j, other in enumerate(constraints):
                if j == idx:
                    continue
                coeff = other.expr.coeffs.get(victim)
                if not coeff:
                    new_constraints.append(other)
                    continue
                merged = {n: v for n, v in other.expr.coeffs.items()
                          if n != victim}
                for n, v in expr.coeffs.items():
                    value = merged.get(n, zero) + coeff * v
                    if value:
                        merged[n] = value
                    else:
                        merged.pop(n, None)
                new_constraints.append(Constraint(
                    LinExpr._raw(merged,
                                 other.expr.const + coeff * expr.const),
                    other.sense))
            constraints = new_constraints + replacement
            progress = True
            break

    if not removed and all(c.expr.coeffs for c in constraints):
        return problem, eliminated

    reduced = Problem()
    for name in problem._order:
        if name not in removed:
            reduced.add_variable(name, problem._lower[name],
                                 problem._upper[name], problem._integer[name])
    for c in constraints:
        if not c.expr.coeffs:
            if not c.satisfied_by({}):
                flag = reduced.add_variable("__infeasible__", lower=0, upper=0)
                reduced.add_constraint(flag >= 1)
            continue
        reduced.add_constraint(c)
    return reduced, eliminated
