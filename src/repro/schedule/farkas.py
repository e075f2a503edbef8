"""The affine form of Farkas' lemma, applied to symbolic affine forms.

The scheduling ILP must express conditions of the shape

    e(x) >= 0   for every x in P,

where ``P`` is a dependence polyhedron and ``e`` is an affine form of the
polyhedron's dimensions whose *coefficients are unknowns* (schedule
coefficients).  Farkas' lemma turns this universally quantified condition
into existentially quantified linear constraints:

    e(x) == lambda_0 + sum_k lambda_k * g_k(x),    lambda >= 0,

where ``g_k(x) >= 0`` are the constraints of ``P``.  Matching coefficients
dimension by dimension yields equality constraints linking the schedule
unknowns and fresh multiplier variables.

To keep the ILPs small we first eliminate polyhedron dimensions pinned by
equality constraints (subscript equalities make most AI/DL dependence
relations collapse drastically), substituting into the symbolic form.

Then the multipliers the matching equalities pin are eliminated too, once
per (polyhedron, symbolic form) pair, as Pluto does: the block is reduced
over placeholder multiplier names with the same routine presolve uses
(:func:`repro.solver.problem.eliminate_pinned`) and remembered by the form
as a template.  ``add_farkas_nonneg`` only renames the placeholders.  A block's rows are
what presolving the raw block inside a scheduling ILP would leave, because
no two blocks share a continuous column (schedule and bound unknowns are
integer, every block has its own multipliers, and no objective mentions a
multiplier): global presolve eliminates block by block, in block order,
and moves each eliminated multiplier's ``expr >= 0`` row to the end.
``DimensionProblem`` emits those bound rows last, so the LP the simplex
sees is unchanged and presolve finds nothing left to eliminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.runtime import get_obs
from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import (Constraint, LinExpr, Problem,
                                  eliminate_pinned)


@dataclass
class SymbolicAffineForm:
    """An affine form over polyhedron dims whose coefficients are LinExpr
    over solver unknowns (schedule coefficients, bound coefficients...).

    A form remembers the reduced Farkas block of its last linearization, as
    ``(polyhedron, block)``, so a form built once and linearized again on
    the same polyhedron (``DimensionProblem`` keeps one per relation for a
    whole scheduling run) skips the reduction.  A form must therefore
    not change once it has been linearized; :meth:`copy` starts afresh.
    """

    coeffs: dict[str, LinExpr] = field(default_factory=dict)
    const: LinExpr = field(default_factory=LinExpr)
    _block: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def copy(self) -> "SymbolicAffineForm":
        return SymbolicAffineForm({k: v.copy() for k, v in self.coeffs.items()},
                                  self.const.copy())

    def add_term(self, dim: str, coeff: LinExpr) -> None:
        current = self.coeffs.get(dim, LinExpr())
        self.coeffs[dim] = current + coeff

    def coefficient(self, dim: str) -> LinExpr:
        return self.coeffs.get(dim, LinExpr())

    @classmethod
    def from_symbolic_expr(cls, dim_exprs: dict[str, LinExpr],
                           const: Optional[LinExpr] = None) -> "SymbolicAffineForm":
        return cls({d: e for d, e in dim_exprs.items()},
                   const if const is not None else LinExpr())


def _normalized_inequalities(poly: Polyhedron) -> tuple[list[LinExpr], list[LinExpr]]:
    """Split constraints into (equalities, inequalities-as->=0), deduplicated."""
    equalities: list[LinExpr] = []
    inequalities: list[LinExpr] = []
    seen = set()
    for c in poly.constraints:
        if c.sense == "==":
            equalities.append(c.expr)
            continue
        expr = c.expr if c.sense == ">=" else -c.expr
        key = expr.signature()
        if key not in seen:
            seen.add(key)
            inequalities.append(expr)
    return equalities, inequalities


def _eliminate_equalities(dims: list[str], equalities: list[LinExpr],
                          inequalities: list[LinExpr],
                          form: SymbolicAffineForm) -> tuple[list[str], list[LinExpr],
                                                             SymbolicAffineForm]:
    """Substitute away dims pinned by equalities, in both the inequality
    system and the symbolic form.  Equalities that become variable-free must
    be identically zero (otherwise the polyhedron was empty — callers only
    pass non-empty relations)."""
    dims = list(dims)
    form = form.copy()
    equalities = [e.copy() for e in equalities]
    inequalities = [e.copy() for e in inequalities]

    while equalities:
        equality = equalities.pop()
        pivot = next((d for d in dims if equality.coeffs.get(d)), None)
        if pivot is None:
            if equality.const != 0:
                raise ValueError("inconsistent equality in non-empty polyhedron")
            continue
        substitution = equality.solved_for(pivot)
        equalities = [e.substitute(pivot, substitution) for e in equalities]
        inequalities = [e.substitute(pivot, substitution)
                        for e in inequalities]
        # Substitute in the symbolic form: the (symbolic) coefficient of the
        # pivot redistributes onto the substitution's dims and constant.
        pivot_coeff = form.coeffs.pop(pivot, LinExpr())
        for name, c in substitution.coeffs.items():
            form.add_term(name, c * pivot_coeff)
        form.const = form.const + substitution.const * pivot_coeff
        dims.remove(pivot)

    # Drop inequalities that became trivially true constants.
    kept = []
    for expr in inequalities:
        live = {d for d in expr.coeffs if d in dims}
        if not live:
            if expr.const < 0:
                raise ValueError("inconsistent inequality in non-empty polyhedron")
            continue
        kept.append(expr)
    return dims, kept, form


def _block_template(dims: list[str], inequalities: list[LinExpr],
                    form: SymbolicAffineForm) -> tuple:
    """The reduced Farkas block of ``form >= 0`` over placeholder multipliers.

    Poses the coefficient-matching equalities (one per remaining dimension,
    then the constant), eliminates the multipliers they pin with
    :func:`eliminate_pinned` (the multipliers are the only eligible columns)
    and returns ``(survivors, rows, bounds)``: the multipliers left as
    columns, the surviving rows in order and the eliminated multipliers'
    ``expr >= 0`` rows in elimination order.  Satisfied constant rows are
    dropped; a violated one stays in place so presolve flags the problem
    infeasible.
    """
    # Placeholder multiplier names: ``.l0`` is the constant multiplier,
    # ``.l{k}`` the k-th inequality's.  No unknown of a symbolic form starts
    # with a dot; ``add_farkas_nonneg`` prepends its prefix.
    names = [f".l{k}" for k in range(len(inequalities) + 1)]
    multipliers = names[1:]
    equalities = []
    # Multiplier names are fresh, so their coefficients are written into the
    # dict directly rather than through a chain of LinExpr subtractions.
    for dim in dims:
        base = form.coefficient(dim)
        coeffs = dict(base.coeffs)
        for name, g in zip(multipliers, inequalities):
            c = g.coeffs.get(dim)
            if c:
                coeffs[name] = -c
        equalities.append(Constraint(LinExpr._raw(coeffs, base.const), "=="))
    coeffs = dict(form.const.coeffs)
    coeffs[names[0]] = -1
    for name, g in zip(multipliers, inequalities):
        if g.const:
            coeffs[name] = -g.const
    equalities.append(Constraint(LinExpr._raw(coeffs, form.const.const), "=="))

    kept, bounds, trail = eliminate_pinned(
        equalities, set(names), dict.fromkeys(names, 0),
        dict.fromkeys(names))
    eliminated = {name for name, _ in trail}

    def live(rows):
        return tuple(c for c in rows if c.expr.coeffs or not c.satisfied_by({}))

    return (tuple(n for n in names if n not in eliminated),
            live(kept), live(bounds))


def _linearize(poly: Polyhedron, form: SymbolicAffineForm) -> tuple:
    """The :func:`_block_template` of ``form >= 0`` on ``poly``.

    A form remembers the block of its last linearization; asked again on
    that very polyhedron, it answers from memory (``solver.farkas.hits``).
    The coincidence/plain retries of one dimension and the dimensions of
    one schedule share their forms, so most linearizations are such
    repeats."""
    metrics = get_obs().metrics
    remembered = form._block
    if remembered is not None and remembered[0] is poly:
        if metrics.enabled:
            metrics.count("solver.farkas.hits")
        return remembered[1]
    if metrics.enabled:
        metrics.count("solver.farkas.misses")
    equalities, inequalities = _normalized_inequalities(poly)
    template = _block_template(*_eliminate_equalities(
        poly.dims, equalities, inequalities, form))
    form._block = (poly, template)
    return template


def add_farkas_nonneg(problem: Problem, prefix: str, poly: Polyhedron,
                      form: SymbolicAffineForm) -> list[Constraint]:
    """Make ``form(x) >= 0`` hold on ``poly`` in ``problem``.

    Adds the reduced Farkas block: the surviving continuous multipliers
    ``{prefix}.l{k}`` (``{prefix}.l0`` is the constant multiplier) and the
    surviving rows.  Returns the block's bound rows (one ``expr >= 0`` per
    eliminated multiplier), which the caller adds: ``DimensionProblem``
    places them after every other row, where presolving the raw block
    would.  ``prefix`` must be unique per call.
    """
    survivors, rows, bounds = _linearize(poly, form)
    names = {}
    for placeholder in survivors:
        name = prefix + placeholder
        problem.add_variable(name, lower=0, integer=False)
        names[placeholder] = name

    def renamed(c: Constraint) -> Constraint:
        return Constraint(LinExpr._raw(
            {names.get(n, n): v for n, v in c.expr.coeffs.items()},
            c.expr.const), c.sense)

    problem.add_constraints(renamed(c) for c in rows)
    return [renamed(c) for c in bounds]
