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

Then the multipliers leave the block altogether, once per (polyhedron,
symbolic form) pair, as Pluto does.  The ones the matching equalities pin
are substituted away with the routine presolve uses
(:func:`repro.solver.problem.eliminate_pinned`); the ones left are
continuous and non-negative, and Fourier–Motzkin projects them out.  That
projection is exact over the rationals, so an integer point of the form's
unknowns satisfies the projected rows exactly when non-negative
multipliers certify it: a block holds rows over the form's unknowns only
(schedule coefficients, ``u`` and ``w``).  Every row is scaled to
primitive integers, duplicates are dropped, and a constant row is dropped
only when it holds (a violated one stays, so the ILP is infeasible).
Variable bounds are not used to prune: the block does not know them.  A
block whose projection would hold more than :data:`MAX_PROJECTION_ROWS`
rows keeps its surviving multipliers as columns instead, and each use of
it counts ``solver.farkas.unprojected``.

A block is a pure function of the polyhedron's canonical form and the
form's content (constraints are taken in canonical order), and the
blocks live in one process-wide memo, ``cache.farkas``, keyed by both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from repro.memo import Memo
from repro.obs.runtime import get_obs
from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import (Constraint, LinExpr, Problem, add_scaled,
                                  eliminate_pinned)

#: Most rows Fourier–Motzkin may hold while projecting one block's
#: multipliers out; a block that needs more keeps its multipliers.
MAX_PROJECTION_ROWS = 256

#: Farkas blocks by (canonical polyhedron, form signature).  Process-wide,
#: like the dependence and emptiness memos (DESIGN.md "Caches").
FARKAS_MEMO = Memo("cache.farkas", 4096)


@dataclass
class SymbolicAffineForm:
    """An affine form over polyhedron dims whose coefficients are LinExpr
    over solver unknowns (schedule coefficients, bound coefficients...)."""

    coeffs: dict[str, LinExpr] = field(default_factory=dict)
    const: LinExpr = field(default_factory=LinExpr)

    def copy(self) -> "SymbolicAffineForm":
        return SymbolicAffineForm({k: v.copy() for k, v in self.coeffs.items()},
                                  self.const.copy())

    def add_term(self, dim: str, coeff: LinExpr) -> None:
        current = self.coeffs.get(dim, LinExpr())
        self.coeffs[dim] = current + coeff

    def coefficient(self, dim: str) -> LinExpr:
        return self.coeffs.get(dim, LinExpr())

    def signature(self) -> tuple:
        """Canonical content: the nonzero coefficients' signatures by
        dimension, then the constant's."""
        return (tuple(sorted((d, e.signature())
                             for d, e in self.coeffs.items()
                             if e.coeffs or e.const)),
                self.const.signature())

    @classmethod
    def from_symbolic_expr(cls, dim_exprs: dict[str, LinExpr],
                           const: Optional[LinExpr] = None) -> "SymbolicAffineForm":
        return cls({d: e for d, e in dim_exprs.items()},
                   const if const is not None else LinExpr())


def _normalized_inequalities(poly: Polyhedron) -> tuple[list[LinExpr], list[LinExpr]]:
    """Split constraints into (equalities, inequalities-as->=0), deduplicated,
    in the canonical order of :meth:`Polyhedron.canonical`."""
    equalities: list[LinExpr] = []
    inequalities: list[LinExpr] = []
    seen = set()
    for c in sorted(poly.constraints,
                    key=lambda c: (c.sense, *c.expr.signature())):
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


def _primitive(coeffs: dict, const) -> LinExpr:
    """``coeffs . x + const`` scaled by a positive factor to coprime
    integers (``coeffs`` holds nonzero canonical scalars)."""
    values = [*coeffs.values(), const]
    lcm = 1
    for v in values:
        if type(v) is not int:
            d = v.denominator
            lcm = lcm * d // gcd(lcm, d)
    if lcm != 1:
        coeffs = {n: int(v * lcm) for n, v in coeffs.items()}
        const = int(const * lcm)
    g = 0
    for v in coeffs.values():
        g = gcd(g, v)
    g = gcd(g, const)
    if g > 1:
        coeffs = {n: v // g for n, v in coeffs.items()}
        const //= g
    return LinExpr._raw(coeffs, const)


def _project(multipliers: list[str],
             rows: list[LinExpr]) -> Optional[list[LinExpr]]:
    """Fourier–Motzkin projection of non-negative ``multipliers`` out of
    the system ``rows >= 0``.

    Each step eliminates the multiplier whose positive/negative row pairs
    add the fewest rows (the first such in ``multipliers`` order), combining
    every such pair.  Rows are kept primitive and distinct, and satisfied
    constant rows are dropped.  Returns the rows left, over the other
    unknowns, or ``None`` as soon as more than :data:`MAX_PROJECTION_ROWS`
    rows are held.
    """
    system: dict[tuple, LinExpr] = {}

    def add(expr: LinExpr) -> None:
        if expr.coeffs or expr.const < 0:
            system.setdefault(expr.signature(), expr)

    for expr in rows:
        add(_primitive(expr.coeffs, expr.const))
    for name in multipliers:
        add(LinExpr._raw({name: 1}, 0))
    remaining = list(multipliers)
    while remaining:
        def growth(name: str) -> int:
            pos = sum(1 for e in system.values() if e.coeffs.get(name, 0) > 0)
            neg = sum(1 for e in system.values() if e.coeffs.get(name, 0) < 0)
            return pos * neg - pos - neg

        name = min(remaining, key=growth)
        remaining.remove(name)
        pos, neg = [], []
        kept: dict[tuple, LinExpr] = {}
        for key, e in system.items():
            c = e.coeffs.get(name)
            if not c:
                kept[key] = e
            else:
                (pos if c > 0 else neg).append(e)
        system = kept
        for p in pos:
            k_p = p.coeffs[name]
            for n in neg:
                k_n = -n.coeffs[name]
                # k_n * p + k_p * n: ``name`` cancels.
                coeffs = add_scaled({m: k_n * v for m, v in p.coeffs.items()},
                                    k_p, n.coeffs)
                add(_primitive(coeffs, k_n * p.const + k_p * n.const))
            if len(system) > MAX_PROJECTION_ROWS:
                return None
    return list(system.values())


def _farkas_block(dims: list[str], inequalities: list[LinExpr],
                  form: SymbolicAffineForm) -> tuple:
    """The Farkas block of ``form >= 0`` as ``(multipliers, rows)``.

    Poses the coefficient-matching equalities (one per remaining dimension,
    then the constant) over placeholder multipliers, eliminates the
    multipliers they pin with :func:`eliminate_pinned` (the multipliers
    are the only eligible columns) and projects the rest out
    (:func:`_project`).  Then ``multipliers`` is empty and ``rows`` holds
    the equalities left, primitive and distinct, then the projected
    inequalities.  A block whose projection exceeds the row cap keeps the
    surviving multipliers instead: ``rows`` then holds the equalities left
    and the eliminated multipliers' ``expr >= 0`` rows, over the survivors.
    Satisfied constant rows are dropped; a violated one stays, so the ILP
    is infeasible.
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
    survivors = [n for n in names if n not in eliminated]
    projected = _project(survivors, [c.expr for c in bounds])
    if projected is None:
        return (tuple(survivors),
                tuple(c for c in (*kept, *bounds)
                      if c.expr.coeffs or not c.satisfied_by({})))
    rows = {}
    for c in kept:
        expr = _primitive(c.expr.coeffs, c.expr.const)
        if expr.coeffs or expr.const:
            rows.setdefault(expr.signature(), Constraint(expr, "=="))
    return ((), (*rows.values(),
                 *(Constraint(e, ">=") for e in projected)))


def _linearize(poly: Polyhedron, form: SymbolicAffineForm) -> tuple:
    """The :func:`_farkas_block` of ``form >= 0`` on ``poly``, from the
    ``cache.farkas`` memo when an equal polyhedron and form were
    linearized before."""
    key = (poly.canonical(), form.signature())
    block = FARKAS_MEMO.get(key)
    if block is None:
        equalities, inequalities = _normalized_inequalities(poly)
        block = _farkas_block(*_eliminate_equalities(
            poly.dims, equalities, inequalities, form))
        FARKAS_MEMO.put(key, block)
    return block


def add_farkas_nonneg(problem: Problem, prefix: str, poly: Polyhedron,
                      form: SymbolicAffineForm, present: set) -> None:
    """Make ``form(x) >= 0`` hold on ``poly`` in ``problem``.

    Adds the block's rows.  ``present`` is the set of multiplier-free rows
    already in ``problem``: a row found there is not added again, and the
    others join it.  A block over the projection cap also declares its
    surviving continuous multipliers ``{prefix}.l{k}`` (``{prefix}.l0`` is
    the constant multiplier), so ``prefix`` must be unique per call.
    """
    multipliers, rows = _linearize(poly, form)
    if not multipliers:
        # A block's rows are distinct, so one membership pass suffices.
        rows = [c for c in rows if c not in present]
        present.update(rows)
        problem.add_constraints(rows)
        return
    metrics = get_obs().metrics
    if metrics.enabled:
        metrics.count("solver.farkas.unprojected")
    names = {}
    for placeholder in multipliers:
        name = prefix + placeholder
        problem.add_variable(name, lower=0, integer=False)
        names[placeholder] = name
    problem.add_constraints(
        Constraint(LinExpr._raw(
            {names.get(n, n): v for n, v in c.expr.coeffs.items()},
            c.expr.const), c.sense)
        for c in rows)
