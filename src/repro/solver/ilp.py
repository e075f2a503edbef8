"""Mixed-integer branch and bound on top of the exact simplex.

Only the variables flagged in ``integer_mask`` are branched on; the rest
(e.g. Farkas multipliers, which need not be integral) stay continuous.  All
integer variables are expected to be bounded — the scheduling problems built
by this library always bound schedule coefficients — which guarantees
termination.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import BranchLimitExceeded
from repro.linalg.rational import Rat
from repro.obs.runtime import get_obs
from repro.solver.budget import get_budget
from repro.solver.lp import LinearProgram, LPResult, LPStatus, solve_lp

__all__ = ["BranchLimitExceeded", "solve_ilp", "integer_feasible"]


def _report_bb_nodes(nodes: int) -> None:
    """Feed branch-and-bound activity to the ambient metrics registry."""
    metrics = get_obs().metrics
    if metrics.enabled:
        metrics.count("solver.ilp_solves")
        metrics.count("solver.bb_nodes", nodes)


def _is_integral(value: Rat) -> bool:
    return value.denominator == 1


def _first_fractional(x: Sequence[Rat], integer_mask: Sequence[bool]) -> Optional[int]:
    for i, (v, is_int) in enumerate(zip(x, integer_mask)):
        if is_int and not _is_integral(v):
            return i
    return None


def solve_ilp(lp: LinearProgram,
              integer_mask: Optional[Sequence[bool]] = None,
              max_nodes: int = 100_000,
              incumbent_bound: Optional[Rat] = None) -> LPResult:
    """Solve a mixed-integer program by branch and bound.

    ``integer_mask[i]`` marks variable ``i`` as integral (all variables by
    default).  Returns an :class:`LPResult` whose ``x`` satisfies the
    integrality requirements, or status INFEASIBLE/UNBOUNDED.

    ``incumbent_bound`` is the objective value of a *known feasible integral
    point* (the optimum of the previous lexicographic level).  It enables
    one extra prune — discarding nodes whose relaxation is *strictly* worse
    than the bound — which provably cannot change the returned point: every
    subtree it removes contains only values worse than the optimum, and the
    first node at which the plain search would accept an incumbent of value
    <= bound is reached unpruned.  The point is never seeded as ``best``
    (that could win objective ties against the point the unbounded search
    finds first), so bounded results stay bitwise-identical to unbounded
    ones.
    """
    if integer_mask is None:
        integer_mask = [True] * lp.n_vars
    if len(integer_mask) != lp.n_vars:
        raise ValueError("integer_mask length does not match variable count")

    root = solve_lp(lp)
    if root.status is not LPStatus.OPTIMAL:
        return root

    best: Optional[LPResult] = None
    # Stack of (lower bounds, upper bounds, pre-solved relaxation) entries;
    # depth-first search.  The root node reuses ``root`` instead of solving
    # the identical LP a second time.
    stack: list = [(list(lp.lower), list(lp.upper), root)]
    nodes = 0

    try:
        while stack:
            lower, upper, presolved = stack.pop()
            nodes += 1
            if nodes > max_nodes:
                raise BranchLimitExceeded(f"exceeded {max_nodes} branch-and-bound nodes")
            budget = get_budget()
            if budget is not None:
                budget.charge_node()
            if presolved is not None:
                result = presolved
            else:
                result = solve_lp(lp.with_bounds(list(lower), list(upper)))
            if result.status is not LPStatus.OPTIMAL:
                continue
            if best is not None and result.objective >= best.objective:
                continue  # bound: the relaxation cannot beat the incumbent
            if incumbent_bound is not None and result.objective > incumbent_bound:
                continue  # a known feasible point already does at least this well
            branch_var = _first_fractional(result.x, integer_mask)
            if branch_var is None:
                best = result
                continue
            value = result.x[branch_var]
            floor_val = value.numerator // value.denominator
            # Explore the floor side first (schedule coefficients tend small).
            up_lower = list(lower)
            up_lower[branch_var] = floor_val + 1
            stack.append((up_lower, list(upper), None))
            down_upper = list(upper)
            down_upper[branch_var] = floor_val
            stack.append((list(lower), down_upper, None))
    finally:
        _report_bb_nodes(nodes)

    if best is None:
        return LPResult(LPStatus.INFEASIBLE)
    return best


def integer_feasible(lp: LinearProgram,
                     integer_mask: Optional[Sequence[bool]] = None,
                     max_nodes: int = 100_000,
                     root: Optional[LPResult] = None) -> bool:
    """True iff the system has a (mixed-)integer point.

    The objective of ``lp`` is ignored; feasibility is checked with a zero
    objective so branch and bound stops at the first integral point.
    ``root`` is that zero-objective relaxation's result when the caller has
    already solved it (``solve_lp`` of ``lp`` with its objective zeroed);
    it is then not solved a second time.
    """
    zero_obj = lp.with_objective([0] * lp.n_vars)
    if integer_mask is None:
        integer_mask = [True] * lp.n_vars

    if root is None:
        root = solve_lp(zero_obj)
    if root.status is not LPStatus.OPTIMAL:
        return False

    stack: list = [(list(lp.lower), list(lp.upper), root)]
    nodes = 0
    try:
        while stack:
            lower, upper, presolved = stack.pop()
            nodes += 1
            if nodes > max_nodes:
                raise BranchLimitExceeded(f"exceeded {max_nodes} branch-and-bound nodes")
            budget = get_budget()
            if budget is not None:
                budget.charge_node()
            if presolved is not None:
                result = presolved
            else:
                result = solve_lp(zero_obj.with_bounds(list(lower), list(upper)))
            if result.status is not LPStatus.OPTIMAL:
                continue
            branch_var = _first_fractional(result.x, integer_mask)
            if branch_var is None:
                return True
            value = result.x[branch_var]
            floor_val = value.numerator // value.denominator
            up_lower = list(lower)
            up_lower[branch_var] = floor_val + 1
            stack.append((up_lower, list(upper), None))
            down_upper = list(upper)
            down_upper[branch_var] = floor_val
            stack.append((list(lower), down_upper, None))
        return False
    finally:
        _report_bb_nodes(nodes)
