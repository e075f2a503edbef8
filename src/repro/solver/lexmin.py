"""Lexicographic minimization over integer points.

isl's scheduler solves each per-dimension problem by lexicographically
minimizing a sequence of objectives (sum of parameter-bound coefficients,
the constant bound, then the schedule coefficients themselves).  We reproduce
that here: minimize objective 0, pin it with an equality, minimize objective
1, and so on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.linalg.rational import Rat, frac
from repro.solver.lp import LinearProgram, LPResult, LPStatus
from repro.solver.ilp import solve_ilp


def lexicographic_minimize(lp: LinearProgram,
                           objectives: Sequence[Sequence[Rat]],
                           integer_mask: Optional[Sequence[bool]] = None,
                           max_nodes: int = 100_000) -> LPResult:
    """Lexicographically minimize ``objectives`` over the feasible set of ``lp``.

    ``lp.objective`` is ignored; each row of ``objectives`` is one level of
    the lexicographic order.  Returns the final point (status OPTIMAL), or
    INFEASIBLE/UNBOUNDED from the first failing level.

    Levels chain their incumbents: the optimum of level ``k`` is a feasible
    integral point of level ``k+1``'s pinned problem, so its value under the
    next objective seeds that solve's strict bound (see
    :func:`repro.solver.ilp.solve_ilp`).
    """
    if not objectives:
        raise ValueError("need at least one objective level")
    current = lp
    result: Optional[LPResult] = None
    bound: Optional[Rat] = None
    levels = [[frac(c) for c in level] for level in objectives]
    for index, level in enumerate(levels):
        if len(level) != lp.n_vars:
            raise ValueError("objective level length does not match variable count")
        current = current.with_objective(level)
        result = solve_ilp(current, integer_mask=integer_mask,
                           max_nodes=max_nodes, incumbent_bound=bound)
        if result.status is not LPStatus.OPTIMAL:
            return result
        # Pin this level's value and move to the next one.
        current = replace(
            current,
            a_eq=current.a_eq + [level],
            b_eq=current.b_eq + [result.objective],
        )
        if index + 1 < len(levels):
            nxt = levels[index + 1]
            bound = frac(sum(c * v for c, v in zip(nxt, result.x)))
    assert result is not None
    return result
