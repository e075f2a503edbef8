"""Property test: one-pass presolve reproduces the restart-scan presolve.

``Problem.presolved`` eliminates pinned continuous columns in one forward
pass with a column -> rows occurrence index; the test-only reference in
``tests/farkas_reference.py`` restarts its scan from the first row after
every elimination.  Both must produce the same trail, the same rows in the
same order with the same coefficient-insertion order, and the same columns
with the same bounds.  The generator mixes protected columns, victims with
upper bounds, inequalities ahead of the eliminated equalities, equalities
that gain continuous columns through earlier substitutions, and constant
rows that hold or fail.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.problem import Constraint, LinExpr, Problem
from tests.farkas_reference import restart_scan_presolved

TIER1_EXAMPLES = 300
SLOW_EXAMPLES = 5000

_COEFFS = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2, 3)]
                          + [Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def presolve_cases(draw):
    n_int = draw(st.integers(0, 3))
    n_cont = draw(st.integers(1, 4))
    problem = Problem()
    names = []
    for k in range(n_int):
        names.append(f"x{k}")
        problem.add_variable(f"x{k}", lower=draw(st.integers(-2, 0)),
                             upper=draw(st.integers(1, 4)))
    for k in range(n_cont):
        names.append(f"l{k}")
        lower = draw(st.sampled_from([0, 0, -1, None]))
        upper = draw(st.sampled_from([None, None, 3]))
        problem.add_variable(f"l{k}", lower=lower, upper=upper, integer=False)
    # Few names per row over a small pool: substitutions often carry a
    # continuous column into later rows, or cancel one out of them.
    row = st.lists(st.tuples(st.sampled_from(names), _COEFFS),
                   min_size=0, max_size=4)
    for _ in range(draw(st.integers(1, 7))):
        coeffs = {}
        for name, c in draw(row):
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        sense = draw(st.sampled_from(["==", "==", ">=", "<="]))
        const = Fraction(draw(st.integers(-3, 3)))
        problem.add_constraint(Constraint(LinExpr(coeffs, const), sense))
    protect = set(draw(st.lists(st.sampled_from(names), max_size=2)))
    return problem, protect


def _rows(problem):
    return [(c.sense, list(c.expr.coeffs.items()), c.expr.const)
            for c in problem.constraints]


def _columns(problem):
    return [(n, problem._lower[n], problem._upper[n], problem._integer[n])
            for n in problem.variables]


def _assert_same_presolve(problem, protect):
    expected, expected_trail = restart_scan_presolved(problem, protect)
    got, trail = problem.presolved(protect=protect)
    assert [(n, list(e.coeffs.items()), e.const) for n, e in trail] == \
        [(n, list(e.coeffs.items()), e.const) for n, e in expected_trail]
    assert (got is problem) == (expected is problem)
    assert _rows(got) == _rows(expected)
    assert _columns(got) == _columns(expected)
    return got, trail


@given(case=presolve_cases())
@settings(max_examples=TIER1_EXAMPLES, deadline=None)
def test_one_pass_presolve_matches_the_restart_scan(case):
    _assert_same_presolve(*case)


@pytest.mark.slow
@given(case=presolve_cases())
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
def test_one_pass_presolve_matches_the_restart_scan_many(case):
    _assert_same_presolve(*case)


def _problem(continuous, rows, integer=("x",), upper=None):
    problem = Problem()
    for name in integer:
        problem.add_variable(name, lower=0, upper=4)
    for name in continuous:
        problem.add_variable(name, lower=0, upper=(upper or {}).get(name),
                             integer=False)
    for coeffs, const, sense in rows:
        problem.add_constraint(Constraint(LinExpr(coeffs, const), sense))
    return problem


def test_substitution_brings_a_new_column_into_a_later_equality():
    # a = x - b; the second equality then holds b, which becomes its victim.
    problem = _problem(["a", "b"], [({"a": 1, "x": -1, "b": 1}, 0, "=="),
                                    ({"x": 2, "a": 1}, -3, "==")])
    got, trail = _assert_same_presolve(problem, set())
    assert [name for name, _ in trail] == ["a", "b"]


def test_inequality_ahead_of_the_equality_is_rewritten_in_place():
    problem = _problem(["a"], [({"a": 1, "x": 1}, -2, ">="),
                               ({"x": 1}, -1, "<="),
                               ({"a": 2, "x": -1}, 0, "==")])
    got, _ = _assert_same_presolve(problem, set())
    # The rewritten inequality stays first; a's bound row comes last.
    assert got.constraints[0].expr.coeffs == {"x": Fraction(3, 2)}
    assert len(got.constraints) == 3


def test_protected_column_is_skipped_for_the_next_one():
    problem = _problem(["a", "b"], [({"a": 1, "b": -1, "x": 1}, 0, "==")])
    got, trail = _assert_same_presolve(problem, {"a"})
    assert [name for name, _ in trail] == ["b"]


def test_upper_bounded_victim_leaves_two_bound_rows():
    problem = _problem(["a"], [({"a": 1, "x": -1}, 0, "==")],
                       upper={"a": 3})
    got, _ = _assert_same_presolve(problem, set())
    assert [c.sense for c in got.constraints] == [">=", "<="]


@pytest.mark.parametrize("const,infeasible", [(-1, False), (1, True)])
def test_constant_rows_are_dropped_or_flagged(const, infeasible):
    # a = x; then x - a + const >= 0 becomes the constant const >= 0.
    problem = _problem(["a"], [({"a": 1, "x": -1}, 0, "=="),
                               ({"x": 1, "a": -1}, -const, ">=")])
    got, _ = _assert_same_presolve(problem, set())
    assert ("__infeasible__" in got.variables) == infeasible
