"""Backend load/store vectorization pass (the second AKG modification).

The scheduler marks one dimension for vectorization (via the influence
tree); this pass validates the marked loop and finalizes it by strip-mining:

    for (t = 0; t < E; t++)            forall (to = 0; to < E/w; to++)
      body(t)                    ==>      forvec (ti = 0; ti < w; ti++)
                                            body(w*to + ti)

The outer strip inherits the original dimension's parallelism, so the
mapping pass can put it on ``threadIdx.x`` — adjacent threads then issue
adjacent vector-type accesses, combining memory coalescing with vector
types (the paper's central point).  The inner ``forvec`` loop is what the
backend rewrites with explicit vector types.

Validation:

* width must be 2 or 4 and divide the trip count (Section V condition (b));
* no dependence may be carried at the vector dimension *between iterations
  that are grouped together*: relations whose endpoints both iterate the
  dimension must not be carried there; a producer whose time at the
  dimension is pinned to the loop's start (the fused-producer pattern,
  e.g. statement X of the running example) is safe because it executes
  before the first group.

Loops that fail validation are demoted to plain loops, which is exactly the
``novec`` configuration's behaviour for every loop.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.codegen.ast import (
    Guard,
    Loop,
    Seq,
    StatementCall,
    statements_in,
    substitute_var,
    walk,
)
from repro.deps.relation import DependenceRelation
from repro.ir.kernel import Kernel
from repro.linalg.rational import frac
from repro.schedule.functions import Schedule
from repro.solver.problem import LinExpr, var


def _constant_extent(loop: Loop, params: dict[str, int]) -> Optional[int]:
    """Trip count when the bounds are parameter-only expressions."""
    env = {p: frac(v) for p, v in params.items()}
    try:
        lowers = [e.evaluate(env) for e in loop.lowers]
        uppers = [e.evaluate(env) for e in loop.uppers]
    except KeyError:
        return None  # bounds reference outer loop variables
    lo = min(lowers) if loop.lower_is_min else max(lowers)
    hi = max(uppers) if loop.upper_is_max else min(uppers)
    return int(hi - lo) + 1


def _row_is_scalar_at(schedule: Schedule, name: str, dim: int) -> bool:
    return schedule.rows[name][dim].is_scalar


def _pinned_to_loop_start(schedule: Schedule, name: str, dim: int,
                          loop: Loop) -> bool:
    """True iff the statement's (scalar) time at ``dim`` equals the loop's
    lower bound, i.e. it runs before the first vector group."""
    row_expr = schedule.rows[name][dim].as_expr()
    return any(row_expr == low for low in loop.lowers)


def _unsafe_carried(relations: Iterable[DependenceRelation], schedule: Schedule,
                    dim: int, loop: Loop, names: set[str]) -> bool:
    """True iff grouping iterations of ``dim`` can break a dependence."""
    for rel in relations:
        if rel.source.name not in names or rel.target.name not in names:
            continue
        src_scalar = _row_is_scalar_at(schedule, rel.source.name, dim)
        tgt_scalar = _row_is_scalar_at(schedule, rel.target.name, dim)
        if src_scalar and tgt_scalar:
            continue  # neither endpoint is grouped
        if src_scalar and _pinned_to_loop_start(schedule, rel.source.name,
                                                dim, loop):
            continue  # producer runs before the first group
        # Restrict to pairs tied on the outer dimensions, then test whether
        # the dependence is carried at `dim`.
        poly = rel.polyhedron
        for d in range(dim):
            phi_s = schedule.rows[rel.source.name][d].as_expr()
            phi_t = schedule.rows[rel.target.name][d].as_expr()
            poly = poly.with_constraints([rel.delta_expr(phi_s, phi_t).eq(0)])
        phi_s = schedule.rows[rel.source.name][dim].as_expr()
        phi_t = schedule.rows[rel.target.name][dim].as_expr()
        carried = poly.with_constraints([rel.delta_expr(phi_s, phi_t) >= 1])
        if not carried.is_empty():
            return True
    return False


def _unguarded_calls(node) -> list[StatementCall]:
    """Statement calls not protected by a guard (guarded calls execute for
    single lanes and stay scalar)."""
    out: list[StatementCall] = []
    if isinstance(node, StatementCall):
        out.append(node)
    elif isinstance(node, Seq):
        for child in node.children:
            out.extend(_unguarded_calls(child))
    elif isinstance(node, Loop):
        out.extend(_unguarded_calls(node.body))
    # Guard subtrees are skipped on purpose.
    return out


def _effective_lower(loop: Loop, params: dict[str, int]) -> int:
    """The loop's concrete first iteration value (bounds are parameter-only
    for validated vector loops, so this is a plain integer)."""
    env = {p: frac(v) for p, v in params.items()}
    lowers = [e.evaluate(env) for e in loop.lowers]
    return math.ceil(min(lowers) if loop.lower_is_min else max(lowers))


def _strip_mine_vector_loop(loop: Loop, extent: int, lower: int) -> None:
    """Split the validated vector loop into a mappable outer strip and the
    ``forvec`` inner loop (in place: ``loop`` becomes the outer strip).

    The strip is rebased at zero, so the original variable is rewritten to
    ``lower + width*outer + inner`` — influence-shaped schedule rows can
    give the vector loop a nonzero start (e.g. ``theta(i) = i + 2``), and
    dropping ``lower`` would shift every grouped instance."""
    width = loop.vector_width
    outer_var = f"{loop.var}o"
    inner_var = f"{loop.var}v"
    replacement = (width * var(outer_var)) + var(inner_var) + lower

    inner = Loop(
        var=inner_var,
        lowers=[LinExpr(const=0)],
        uppers=[LinExpr(const=width - 1)],
        body=loop.body,
        schedule_dim=loop.schedule_dim,
        parallel=False,
        vector=True,
        vector_width=width,
    )
    substitute_var(inner.body, loop.var, replacement)
    for call in _unguarded_calls(inner.body):
        call.vector_width = width
    loop.var = outer_var
    loop.lowers = [LinExpr(const=0)]
    loop.uppers = [LinExpr(const=extent // width - 1)]
    loop.lower_is_min = False
    loop.upper_is_max = False
    loop.vector = False
    loop.vector_width = 0
    loop.body = Seq([inner])


def vectorize(ast: Seq, kernel: Kernel, schedule: Schedule,
              relations: Iterable[DependenceRelation],
              enable: bool = True) -> Seq:
    """Finalize (or demote) the vector-marked loops of ``ast`` in place.

    With ``enable=False`` every vector mark is stripped — this is the
    paper's ``novec`` configuration (influenced scheduling, no explicit
    vector types).
    """
    relations = list(relations)
    for node in list(walk(ast)):
        if not isinstance(node, Loop) or not node.vector:
            continue
        if not enable:
            _demote(node)
            continue
        width = node.vector_width
        extent = _constant_extent(node, kernel.params)
        if width not in (2, 4) or extent is None or extent % width != 0 \
                or extent < width:
            _demote(node)
            continue
        names = {call.statement.name for call in statements_in(node.body)}
        if _unsafe_carried(relations, schedule, node.schedule_dim, node, names):
            _demote(node)
            continue
        _strip_mine_vector_loop(node, extent,
                                _effective_lower(node, kernel.params))
    return ast


def _demote(loop: Loop) -> None:
    loop.vector = False
    loop.vector_width = 0
    for call in statements_in(loop.body):
        call.vector_width = 1
