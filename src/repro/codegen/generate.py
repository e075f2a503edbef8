"""Polyhedral code generation: schedule -> loop AST.

For each statement we change basis into schedule time: the time-domain
polyhedron over ``t0..t{n-1}`` plus parameters is obtained by adding the
equalities ``t_d == row_d(i, p)`` to the iteration domain and eliminating
the original iterators (the schedule's full iterator rank guarantees this is
possible), and the iterator reconstruction ``i = M (t - G p - f)`` comes
from the rational pseudo-inverse of the iterator coefficient matrix.

The AST is then built dimension by dimension:

* dimensions where every statement has a scalar (iteration-independent) row
  split the statements into an ordered sequence;
* other dimensions become loops whose bounds are read off the per-statement
  time domains by Fourier–Motzkin projection; statements whose row is scalar
  at a loop dimension are guarded (``t_d == c``), which is how a producer
  statement sits at the start of a consumer's loop after fusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.codegen.ast import Guard, Loop, Seq, StatementCall
from repro.errors import CodegenError
from repro.ir.kernel import Kernel
from repro.ir.statement import Statement
from repro.linalg.matrix import Matrix
from repro.schedule.functions import Schedule, ScheduleRow
from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import Constraint, LinExpr, var

__all__ = ["CodegenError", "generate_ast", "time_var"]


def time_var(dim: int) -> str:
    """Name of the schedule-time variable for dimension ``dim``."""
    return f"t{dim}"


@dataclass
class _TimeDomainItem:
    """One statement lifted into schedule time."""

    statement: Statement
    rows: list[ScheduleRow]
    polyhedron: Polyhedron              # over t-dims + params
    iterator_exprs: dict[str, LinExpr]  # iterators over t-dims + params


def _row_rhs_expr(row: ScheduleRow, dim: int) -> LinExpr:
    """``t_dim - (G_d p + f_d)`` as a LinExpr (the pure-iterator part)."""
    expr = var(time_var(dim))
    for p, c in zip(row.param_names, row.param_coeffs):
        if c:
            expr = expr - c * var(p)
    expr = expr - row.const
    return expr


def _iterator_reconstruction(statement: Statement,
                             rows: list[ScheduleRow]) -> dict[str, LinExpr]:
    """Solve ``H i = t - G p - f`` for the iterators.

    ``H`` (n_dims x depth) has full column rank for a complete schedule; the
    rational pseudo-inverse ``M = (H^T H)^{-1} H^T`` gives ``i = M rhs``.
    Raises :class:`CodegenError` when the reconstruction is non-integral
    (non-unimodular schedules are outside the supported class).
    """
    if not statement.iterators:
        return {}
    depth = len(statement.iterators)
    # Greedily pick a linearly independent subset of rows: the square
    # subsystem inverts cleanly even when extra (dependent) rows exist.
    chosen: list[int] = []
    for d, row in enumerate(rows):
        candidate = [list(rows[c].iter_coeffs) for c in chosen]
        candidate.append(list(row.iter_coeffs))
        if Matrix(candidate).rank() == len(candidate):
            chosen.append(d)
        if len(chosen) == depth:
            break
    if len(chosen) != depth:
        raise CodegenError(
            f"{statement.name}: schedule iterator part is rank-deficient")
    h_sel = Matrix([list(rows[d].iter_coeffs) for d in chosen])
    try:
        inverse = h_sel.inverse()  # depth x depth
    except ValueError as exc:
        raise CodegenError(
            f"{statement.name}: schedule iterator part is singular") from exc
    out: dict[str, LinExpr] = {}
    for k, iterator in enumerate(statement.iterators):
        expr = LinExpr()
        for position, d in enumerate(chosen):
            coeff = inverse[k, position]
            if coeff:
                expr = expr + coeff * _row_rhs_expr(rows[d], d)
        out[iterator] = expr
    return out


def _time_domain(statement: Statement, rows: list[ScheduleRow],
                 params: Sequence[str]) -> Polyhedron:
    """The statement's domain expressed over schedule-time variables."""
    n = len(rows)
    t_dims = [time_var(d) for d in range(n)]
    extra_params = [p for p in params if p not in statement.domain.dims]
    poly = Polyhedron(t_dims + list(statement.domain.dims) + extra_params,
                      statement.domain.constraints)
    equalities = []
    for d, row in enumerate(rows):
        equalities.append((var(time_var(d)) - row.as_expr()).eq(0))
    poly = poly.with_constraints(equalities)
    poly = poly.with_constraints([var(p) >= 1 for p in params])
    return poly.eliminate_all(list(statement.iterators))


def _canonical_bounds(exprs: list[LinExpr]) -> frozenset:
    return frozenset(
        (tuple(sorted(e.coeffs.items())), e.const) for e in exprs)


def generate_ast(kernel: Kernel, schedule: Schedule) -> Seq:
    """Generate the loop AST implementing ``schedule`` for ``kernel``."""
    if not schedule.is_complete():
        raise CodegenError("schedule is not complete (iterator rank deficit)")
    params = kernel.parameter_names
    items = []
    for statement in kernel.statements:
        rows = schedule.rows[statement.name]
        exprs = _iterator_reconstruction(statement, rows)
        for it, expr in exprs.items():
            if any(c.denominator != 1 for c in expr.coeffs.values()) or \
                    expr.const.denominator != 1:
                raise CodegenError(
                    f"{statement.name}: non-unimodular reconstruction of {it}")
        items.append(_TimeDomainItem(
            statement=statement, rows=rows,
            polyhedron=_time_domain(statement, rows, params),
            iterator_exprs=exprs))
    n_dims = schedule.n_dims
    return _generate(items, 0, n_dims, schedule, params)


def _scalar_value(row: ScheduleRow) -> Optional[LinExpr]:
    """The row as a pure parameter/constant expression, or None."""
    if not row.is_scalar:
        return None
    return row.as_expr()


def _generate(items: list[_TimeDomainItem], dim: int, n_dims: int,
              schedule: Schedule, params: Sequence[str]) -> Seq:
    if dim == n_dims:
        seq = Seq()
        for item in items:
            seq.children.append(StatementCall(
                statement=item.statement,
                iterator_exprs=dict(item.iterator_exprs)))
        return seq

    scalar_values = [_scalar_value(item.rows[dim]) for item in items]
    if all(v is not None for v in scalar_values):
        # Pure scalar dimension: order the statements into a sequence.
        groups: dict[tuple, list[_TimeDomainItem]] = {}
        keys: dict[tuple, LinExpr] = {}
        for item, value in zip(items, scalar_values):
            key = (tuple(sorted(value.coeffs.items())), value.const)
            groups.setdefault(key, []).append(item)
            keys[key] = value
        # Order groups by their expression value; parameters are positive,
        # and in practice scalar rows are plain constants.
        def sort_key(key):
            expr = keys[key]
            return (sorted(expr.coeffs.items()), expr.const)
        seq = Seq()
        for key in sorted(groups, key=sort_key):
            sub = _generate(groups[key], dim + 1, n_dims, schedule, params)
            seq.children.extend(sub.children)
        return seq

    # Loop dimension: bounds come from the non-scalar statements.
    t = time_var(dim)
    loop_items = [item for item, v in zip(items, scalar_values) if v is None]
    guarded_items = [(item, v) for item, v in zip(items, scalar_values)
                     if v is not None]

    bound_sets = set()
    per_item_bounds: dict[int, tuple[list[LinExpr], list[LinExpr]]] = {}
    for item in loop_items:
        inner = [time_var(d) for d in range(dim + 1, n_dims)]
        shadow = item.polyhedron.eliminate_all(inner)
        lowers, uppers = shadow.bounds_of(t)
        lowers = _dedupe(lowers)
        uppers = _dedupe(uppers)
        bound_sets.add((_canonical_bounds(lowers), _canonical_bounds(uppers)))
        per_item_bounds[id(item)] = (lowers, uppers)
    union = len(bound_sets) > 1
    guard_of: dict[int, list[Constraint]] = {}

    if union:
        # Union loop: bounds are min-of-lowers .. max-of-uppers, and every
        # loop statement is guarded with its own exact range.
        lowers = _dedupe([e for lo, _ in per_item_bounds.values() for e in lo])
        uppers = _dedupe([e for _, up in per_item_bounds.values() for e in up])
        for item in loop_items:
            own_lowers, own_uppers = per_item_bounds[id(item)]
            conditions = [(var(t) - low >= 0) for low in own_lowers]
            conditions += [(var(t) - up <= 0) for up in own_uppers]
            guard_of[id(item.statement)] = conditions
    else:
        lowers, uppers = next(iter(per_item_bounds.values()))

    # Scalar statements execute at one time point.  Classify each against
    # the loop range: provably-before and provably-after statements are
    # sequenced around the loop; in-range statements are guarded inside.
    before_items: list[_TimeDomainItem] = []
    after_items: list[_TimeDomainItem] = []
    inside_items: list[_TimeDomainItem] = []
    # A plain loop runs max(lowers)..min(uppers), so being outside any one
    # bound puts the scalar point outside the loop; a union loop runs
    # min(lowers)..max(uppers), so it must be outside *every* bound.
    bound_quantifier = all if union else any
    for item, value in guarded_items:
        strictly_before = bound_quantifier(
            item.polyhedron.with_constraints([value - low >= 0]).is_empty()
            for low in lowers)
        strictly_after = bound_quantifier(
            item.polyhedron.with_constraints([value - up <= 0]).is_empty()
            for up in uppers)
        if strictly_before:
            before_items.append(item)
            continue
        if strictly_after:
            after_items.append(item)
            continue
        below = [item.polyhedron.with_constraints([value - low <= -1])
                 for low in lowers]
        above = [item.polyhedron.with_constraints([value - up >= 1])
                 for up in uppers]
        low_ok = any(poly.is_empty() for poly in below) if union else \
            all(poly.is_empty() for poly in below)
        up_ok = any(poly.is_empty() for poly in above) if union else \
            all(poly.is_empty() for poly in above)
        if not (low_ok and up_ok):
            # Straddling: inside the loop range for some outer iterations,
            # outside for others (triangular bounds).  Promote to a union
            # loop that also covers the scalar time point.
            if not union:
                union = True
                for loop_item in loop_items:
                    own_lowers, own_uppers = per_item_bounds[id(loop_item)]
                    conditions = [(var(t) - low >= 0) for low in own_lowers]
                    conditions += [(var(t) - up <= 0) for up in own_uppers]
                    guard_of[id(loop_item.statement)] = conditions
            lowers = _dedupe(lowers + [value])
            uppers = _dedupe(uppers + [value])
        inside_items.append(item)
        guard_of[id(item.statement)] = [(var(t) - value).eq(0)]

    body_items = loop_items + inside_items
    inner_seq = _generate(body_items, dim + 1, n_dims, schedule, params)
    if guard_of:
        inner_seq = _wrap_guards(inner_seq, guard_of)

    info = schedule.dims[dim]
    loop = Loop(
        var=t,
        lowers=lowers,
        uppers=uppers,
        body=inner_seq,
        schedule_dim=dim,
        parallel=info.parallel,
        vector=info.vector,
        vector_width=info.vector_width,
        lower_is_min=union,
        upper_is_max=union,
    )
    out = Seq()
    if before_items:
        # All scalar at this dim: recursion partitions and orders them.
        out.children.extend(
            _generate(before_items, dim, n_dims, schedule, params).children)
    out.children.append(loop)
    if after_items:
        out.children.extend(
            _generate(after_items, dim, n_dims, schedule, params).children)
    return out


def _dedupe(exprs: list[LinExpr]) -> list[LinExpr]:
    seen = set()
    out = []
    for e in exprs:
        key = (tuple(sorted(e.coeffs.items())), e.const)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def _wrap_guards(seq: Seq, guard_of: dict[int, list[Constraint]]) -> Seq:
    """Wrap statement calls (wherever they sit) whose statement needs
    guarding with the given conditions."""
    out = Seq()
    for child in seq.children:
        if isinstance(child, StatementCall) and id(child.statement) in guard_of:
            out.children.append(Guard(
                conditions=list(guard_of[id(child.statement)]),
                body=Seq([child])))
        elif isinstance(child, (Loop, Guard)):
            child.body = _wrap_guards(child.body, guard_of)
            out.children.append(child)
        else:
            out.children.append(child)
    return out
