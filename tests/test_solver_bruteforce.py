"""Differential oracle: the exact solver against lattice enumeration.

Small boxed integer programs (2–4 integer unknowns in [-4, 4], up to five
rows with coefficients in [-3, 3]) are solved by ``Problem.solve``,
``Problem.lexmin`` and ``Polyhedron.is_empty`` and, independently, by
enumerating every lattice point of the box.  The feasibility verdict and
the optimal objective value(s) must agree exactly.  Farkas-shaped programs
(continuous multipliers tied to the unknowns by equalities) come from the
strategy of ``tests/strategies.py``; the enumerator solves each
multiplier from its equality.

The tier-1 profile runs a few dozen examples; the ``slow`` profile, run by
the deep-verify CI job, runs many more.
"""

import itertools
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets.polyhedron import Polyhedron
from repro.solver.problem import Constraint, LinExpr, Problem
from tests.strategies import farkas_like_problems

BOX = 4
TIER1_EXAMPLES = 40
SLOW_EXAMPLES = 400


def _coeff():
    return st.integers(min_value=-3, max_value=3)


@st.composite
def boxed_problems(draw):
    """Integer unknowns in [-BOX, BOX], each box declared a different way
    (bounds, rows, or half of each) so the solver sees shifted, reflected
    and free variables; then up to five random rows."""
    n = draw(st.integers(min_value=2, max_value=4))
    names = [f"x{i}" for i in range(n)]
    problem = Problem()
    for name in names:
        declared = draw(st.sampled_from(["bounds", "rows", "lower", "upper"]))
        lower = -BOX if declared in ("bounds", "lower") else None
        upper = BOX if declared in ("bounds", "upper") else None
        x = problem.add_variable(name, lower=lower, upper=upper)
        if lower is None:
            problem.add_constraint(x >= -BOX)
        if upper is None:
            problem.add_constraint(x <= BOX)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coeffs = {n: Fraction(draw(_coeff())) for n in names}
        const = Fraction(draw(st.integers(min_value=-6, max_value=6)))
        sense = draw(st.sampled_from([">=", ">=", "<=", "=="]))
        problem.add_constraint(Constraint(LinExpr(coeffs, const), sense))
    objectives = [LinExpr({n: Fraction(draw(_coeff())) for n in names})
                  for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return problem, objectives


def _scaled(expr):
    """``expr`` times the lcm of its denominators: integer coefficients
    and constant with the same sign everywhere, so integer points evaluate
    it on ints."""
    scale = 1
    for value in list(expr.coeffs.values()) + [expr.const]:
        scale = scale * value.denominator // math.gcd(scale, value.denominator)
    return ([(n, int(v * scale)) for n, v in expr.coeffs.items()],
            int(expr.const * scale))


def _feasible_points(problem):
    """Every feasible assignment: integer unknowns enumerated over their
    box, each continuous variable solved from the equality that ties it."""
    lp = problem.lower_to_lp()
    names = problem.variables
    integer = problem.integer_mask()
    lower = dict(zip(names, lp.lower))
    upper = dict(zip(names, lp.upper))
    ints = [n for n, is_int in zip(names, integer) if is_int]
    conts = [n for n, is_int in zip(names, integer) if not is_int]
    ranges = []
    for name in ints:
        lo = -BOX if lower[name] is None else int(lower[name])
        hi = BOX if upper[name] is None else int(upper[name])
        ranges.append(range(lo, hi + 1))
    ties = {}
    for name in conts:
        tie = next(c for c in problem.constraints
                   if c.sense == "==" and name in c.expr.coeffs
                   and not set(c.expr.coeffs) & (set(conts) - {name}))
        coeff = tie.expr.coeffs[name]
        ties[name] = ([(n, -v / coeff) for n, v in tie.expr.coeffs.items()
                       if n != name], -tie.expr.const / coeff)
    checks = [(c.sense, *_scaled(c.expr)) for c in problem.constraints]
    for values in itertools.product(*ranges):
        point = dict(zip(ints, values))
        for name, (terms, const) in ties.items():
            value = const + sum(v * point[n] for n, v in terms)
            if (lower[name] is not None and value < lower[name]
                    or upper[name] is not None and value > upper[name]):
                break
            point[name] = value
        else:
            for sense, terms, const in checks:
                value = const + sum(v * point[n] for n, v in terms)
                if (value < 0 if sense == ">=" else
                        value > 0 if sense == "<=" else value != 0):
                    break
            else:
                yield {n: Fraction(v) for n, v in point.items()}


def _check_solve(problem, objectives):
    points = list(_feasible_points(problem))
    solution = problem.clone().solve(objectives[0])
    if not points:
        assert solution is None
        return
    assert solution is not None
    assert all(c.satisfied_by(solution) for c in problem.constraints)
    assert objectives[0].evaluate(solution) == min(
        objectives[0].evaluate(p) for p in points)
    best = problem.clone().lexmin(objectives)
    assert best is not None
    assert tuple(o.evaluate(best) for o in objectives) == min(
        tuple(o.evaluate(p) for o in objectives) for p in points)


def _check_emptiness(problem):
    points = list(_feasible_points(problem))
    lp = problem.lower_to_lp()
    box = []
    for name, lo, hi in zip(problem.variables, lp.lower, lp.upper):
        if lo is not None:
            box.append(LinExpr({name: 1}) >= lo)
        if hi is not None:
            box.append(LinExpr({name: 1}) <= hi)
    polyhedron = Polyhedron(problem.variables, problem.constraints + box)
    assert polyhedron.is_empty() is (not points)
    if points:
        assert not polyhedron.is_empty(integer=False)


@given(case=boxed_problems())
@settings(max_examples=TIER1_EXAMPLES, deadline=None)
def test_boxed_solve_and_lexmin_match_enumeration(case):
    _check_solve(*case)


@given(case=boxed_problems())
@settings(max_examples=TIER1_EXAMPLES, deadline=None)
def test_boxed_emptiness_matches_enumeration(case):
    _check_emptiness(case[0])


@given(case=farkas_like_problems())
@settings(max_examples=TIER1_EXAMPLES, deadline=None)
def test_farkas_shaped_solve_matches_enumeration(case):
    problem, objective = case
    _check_solve(problem, [objective])


@pytest.mark.slow
@given(case=boxed_problems())
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
def test_boxed_problems_match_enumeration_many(case):
    _check_solve(*case)
    _check_emptiness(case[0])


@pytest.mark.slow
@given(case=farkas_like_problems())
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
def test_farkas_shaped_problems_match_enumeration_many(case):
    problem, objective = case
    _check_solve(problem, [objective])
