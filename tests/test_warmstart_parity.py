"""Property test: warm-started and replayed solves are bitwise-identical.

Random integer programs (shaped like the scheduler's Farkas-linearized
dimension systems: small bounded integer unknowns plus continuous
multipliers tied in through equalities) are solved three ways —

* cold, with every reuse disabled (the ``cold_solver`` fixture's patches),
* warm, offering the cold solution (and decoys) through a
  :class:`WarmStartHandle`,
* replayed, through a content-keyed :class:`SolveCache` hit —

and all three must agree exactly: same feasibility verdict, same
assignment, same objective value.  Runs under the pinned deterministic
hypothesis profile from ``conftest.py``.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.dedup import SolveCache, use_solve_cache
from repro.solver.problem import Constraint, LinExpr, Problem, var
from repro.solver.warmstart import WarmStartHandle

from tests import control_arms


def _cold(solve):
    """``solve()`` under the ``cold_solver`` control arm."""
    with pytest.MonkeyPatch.context() as patch:
        control_arms.cold_solver(patch)
        return solve()


def _coeff():
    return st.integers(min_value=-3, max_value=3)


@st.composite
def farkas_like_problems(draw):
    """A random small ILP in the scheduler's shape.

    Bounded integer unknowns (schedule coefficients), optional continuous
    multipliers linked through equality constraints (what Farkas
    linearization leaves before presolve), and a handful of inequality
    constraints over the unknowns.
    """
    n_int = draw(st.integers(min_value=1, max_value=4))
    n_cont = draw(st.integers(min_value=0, max_value=2))
    problem = Problem()
    ints = []
    for i in range(n_int):
        name = f"c{i}"
        problem.add_variable(name, lower=0,
                             upper=draw(st.integers(min_value=1, max_value=5)))
        ints.append(name)
    conts = []
    for i in range(n_cont):
        name = f"l{i}"
        problem.add_variable(name, lower=0, integer=False)
        conts.append(name)

    n_rows = draw(st.integers(min_value=1, max_value=5))
    for _ in range(n_rows):
        coeffs = {n: Fraction(draw(_coeff())) for n in ints}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if not coeffs:
            continue
        const = Fraction(draw(st.integers(min_value=-4, max_value=6)))
        sense = draw(st.sampled_from([">=", "<="]))
        problem.add_constraint(Constraint(LinExpr(coeffs, const), sense))
    # Tie each multiplier to the integer unknowns with an equality, the way
    # Farkas multipliers enter the system.
    for name in conts:
        coeffs = {n: Fraction(draw(_coeff())) for n in ints}
        coeffs[name] = Fraction(-1)
        const = Fraction(draw(st.integers(min_value=-2, max_value=2)))
        problem.add_constraint(Constraint(LinExpr(coeffs, const), "=="))

    objective = LinExpr({n: Fraction(draw(st.integers(min_value=0, max_value=3)))
                         for n in ints})
    if not objective.coeffs:
        objective = var(ints[0])
    return problem, objective


@st.composite
def decoy_assignments(draw, names):
    return {n: Fraction(draw(st.integers(min_value=-1, max_value=6)))
            for n in names}


@given(data=st.data(), case=farkas_like_problems())
@settings(max_examples=60, deadline=None)
def test_warm_and_replayed_solves_match_cold(data, case):
    problem, objective = case
    cold = _cold(lambda: problem.clone().solve(objective))

    # Warm: offer the cold optimum plus arbitrary decoys (feasible or not —
    # infeasible candidates must simply be ignored).
    handle = WarmStartHandle()
    handle.offer(data.draw(decoy_assignments(problem.variables)))
    if cold is not None:
        handle.offer(cold)
    handle.offer(data.draw(decoy_assignments(problem.variables)))
    warm = problem.clone().solve(objective, warm=handle)
    assert warm == cold
    if cold is not None:
        assert objective.evaluate(warm) == objective.evaluate(cold)

    # Replay: identical content solved twice inside one cache scope; the
    # second answer comes from the cache and must be value-identical.
    with use_solve_cache(SolveCache()) as cache:
        first = problem.clone().solve(objective)
        second = problem.clone().solve(objective)
    assert cache.hits >= 1
    assert first == cold
    assert second == first


@given(case=farkas_like_problems())
@settings(max_examples=30, deadline=None)
def test_lexmin_warm_matches_cold(case):
    problem, objective = case
    levels = [objective, LinExpr({n: Fraction(1) for n in problem.variables
                                  if n.startswith("c")})]
    cold = _cold(lambda: problem.clone().lexmin(levels))
    handle = WarmStartHandle()
    if cold is not None:
        handle.offer(cold)
    warm = problem.clone().lexmin(levels, warm=handle)
    assert warm == cold
