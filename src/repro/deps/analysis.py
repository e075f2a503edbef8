"""Dependence analysis: build all dependence relations of a kernel.

For every ordered pair of statements and every pair of conflicting accesses
(same tensor, at least one write), we build the conflict polyhedron

* both iterations in their domains,
* equal subscripts on every tensor dimension,
* source precedes target in the original interleaved (2d+1) order,

and split it by precedence level so each emitted
:class:`~repro.deps.relation.DependenceRelation` is convex.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from repro.deps.relation import (
    DependenceRelation,
    rename_expr,
    source_dim,
    target_dim,
)
from repro.ir.kernel import Kernel
from repro.ir.signature import kernel_signature
from repro.ir.statement import Statement
from repro.memo import Memo
from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import Constraint, LinExpr, var

# Content-keyed memo over whole kernels, the same aliasing contract as the
# pipeline's ScheduleCache: every consumer reads relations through statement
# *names*, so an entry built from one kernel object serves every
# content-equal kernel.  Entries are immutable tuples; callers get a fresh
# list so mutating a result cannot corrupt the memo.  Process-wide: its
# counters depend on what the process evaluated before (see DESIGN.md).
DEPENDENCES_MEMO = Memo("cache.deps", 512)


def _interleaved_exprs(statement: Statement, suffix: str) -> list[LinExpr]:
    """The statement's original-order entries as LinExpr over renamed dims."""
    exprs = []
    for kind, value in statement.interleaved_entries():
        if kind == "beta":
            exprs.append(LinExpr(const=value))
        else:
            name = source_dim(value) if suffix == "s" else target_dim(value)
            exprs.append(var(name))
    return exprs


def _conflict_polyhedron(source: Statement, target: Statement,
                         src_access, tgt_access,
                         params: Iterable[str]) -> Polyhedron:
    """Domain membership + subscript equality (no precedence yet)."""
    dims = ([source_dim(it) for it in source.iterators]
            + [target_dim(it) for it in target.iterators]
            + [p for p in params])
    poly = Polyhedron(dims)

    src_domain = source.domain.rename(
        {it: source_dim(it) for it in source.iterators})
    tgt_domain = target.domain.rename(
        {it: target_dim(it) for it in target.iterators})
    poly = poly.with_constraints(src_domain.constraints)
    poly = poly.with_constraints(tgt_domain.constraints)

    subscript_eqs: list[Constraint] = []
    for s_sub, t_sub in zip(src_access.subscripts, tgt_access.subscripts):
        s_expr = rename_expr(s_sub, source.iterators, "s")
        t_expr = rename_expr(t_sub, target.iterators, "t")
        subscript_eqs.append((s_expr - t_expr).eq(0))
    poly = poly.with_constraints(subscript_eqs)

    # Parameters are positive extents in this application domain.
    poly = poly.with_constraints([var(p) >= 1 for p in params])
    return poly


def _dependence_kind(src_is_write: bool, tgt_is_write: bool) -> str:
    if src_is_write and tgt_is_write:
        return "output"
    if src_is_write:
        return "flow"
    return "anti"


def _split_by_level(base: Polyhedron, source: Statement,
                    target: Statement) -> Iterable[tuple[int, Polyhedron]]:
    """Split the conflict set by lexicographic precedence level.

    Level ``l`` keeps pairs whose interleaved dates agree on entries
    ``0..l-1`` and where the source's entry ``l`` is strictly smaller.
    Shorter date vectors are zero-padded (the paper pads schedules the same
    way in Section III-B).
    """
    src_entries = _interleaved_exprs(source, "s")
    tgt_entries = _interleaved_exprs(target, "t")
    length = max(len(src_entries), len(tgt_entries))
    src_entries += [LinExpr(const=0)] * (length - len(src_entries))
    tgt_entries += [LinExpr(const=0)] * (length - len(tgt_entries))

    prefix_eqs: list[Constraint] = []
    for level in range(length):
        strict = tgt_entries[level] - src_entries[level] - 1 >= 0
        candidate = base.with_constraints(prefix_eqs + [strict])
        if not candidate.is_empty():
            yield level, candidate
        equality = (src_entries[level] - tgt_entries[level]).eq(0)
        diff = src_entries[level] - tgt_entries[level]
        if diff.is_constant() and diff.const != 0:
            return  # entries can never be equal; no deeper level exists
        prefix_eqs.append(equality)


def compute_dependences(kernel: Kernel) -> list[DependenceRelation]:
    """All dependence relations of ``kernel``, split by precedence level."""
    key = kernel_signature(kernel)
    cached = DEPENDENCES_MEMO.get(key)
    if cached is not None:
        return list(cached)
    params = kernel.parameter_names
    relations: list[DependenceRelation] = []
    for source, target in product(kernel.statements, repeat=2):
        for src_access, tgt_access in product(source.accesses, target.accesses):
            if src_access.tensor.name != tgt_access.tensor.name:
                continue
            if not (src_access.is_write or tgt_access.is_write):
                continue
            kind = _dependence_kind(src_access.is_write, tgt_access.is_write)
            shared_params = [p for p in params]
            base = _conflict_polyhedron(source, target, src_access,
                                        tgt_access, shared_params)
            if base.is_empty():
                continue
            for level, poly in _split_by_level(base, source, target):
                relations.append(DependenceRelation(
                    source=source, target=target, kind=kind,
                    polyhedron=poly, level=level,
                    source_access=src_access, target_access=tgt_access))
    DEPENDENCES_MEMO.put(key, tuple(relations))
    return relations
