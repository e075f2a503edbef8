"""Tests for branch-and-bound ILP, lexmin, and the Problem builder."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    Constraint,
    LinearProgram,
    LinExpr,
    LPStatus,
    Problem,
    integer_feasible,
    lexicographic_minimize,
    solve_ilp,
    var,
)
from repro.solver.ilp import BranchLimitExceeded


def boxed_lp(obj, a_ub=(), b_ub=(), lo=0, hi=10):
    n = len(obj)
    return LinearProgram(
        objective=list(obj),
        a_ub=[list(r) for r in a_ub], b_ub=list(b_ub),
        lower=[Fraction(lo)] * n, upper=[Fraction(hi)] * n,
    )


class TestILP:
    def test_integrality_forced(self):
        # LP optimum of max x + y s.t. 2x + 2y <= 5 is fractional (2.5).
        result = solve_ilp(boxed_lp([-1, -1], a_ub=[[2, 2]], b_ub=[5]))
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == -2
        assert all(v.denominator == 1 for v in result.x)

    def test_knapsack_style(self):
        # max 5x + 4y s.t. 6x + 5y <= 10 -> best integer (x=1,y=0) value 5.
        result = solve_ilp(boxed_lp([-5, -4], a_ub=[[6, 5]], b_ub=[10]))
        assert result.objective == -8  # x=0,y=2 gives 8: 5*0+4*2
        # double-check feasibility of the winner
        x, y = result.x
        assert 6 * x + 5 * y <= 10

    def test_infeasible_integer(self):
        # 2x == 1 has no integer solution.
        problem = LinearProgram(objective=[0], a_eq=[[2]], b_eq=[1],
                                lower=[Fraction(0)], upper=[Fraction(5)])
        assert solve_ilp(problem).status is LPStatus.INFEASIBLE

    def test_mixed_integer(self):
        # y continuous: min -y s.t. 2y <= 3 -> y = 3/2 allowed.
        problem = boxed_lp([0, -1], a_ub=[[0, 2]], b_ub=[3])
        result = solve_ilp(problem, integer_mask=[True, False])
        assert result.x[1] == Fraction(3, 2)

    def test_branch_limit(self):
        problem = boxed_lp([-1, -1], a_ub=[[2, 2]], b_ub=[5])
        with pytest.raises(BranchLimitExceeded):
            solve_ilp(problem, max_nodes=1)

    def test_incumbent_bound_prunes_nodes(self):
        # With a bound equal to the optimum, branch and bound may prune
        # strictly-worse subtrees — but the status and point are unchanged.
        p = Problem()
        x = p.add_variable("x", lower=0, upper=4)
        y = p.add_variable("y", lower=0, upper=4)
        p.add_constraint(x + y >= 3)
        lp = p.lower_to_lp(x + 2 * y)
        plain = solve_ilp(lp, integer_mask=p.integer_mask())
        bounded = solve_ilp(lp, integer_mask=p.integer_mask(),
                            incumbent_bound=plain.objective)
        assert bounded.status is LPStatus.OPTIMAL
        assert bounded.x == plain.x
        assert bounded.objective == plain.objective

    def test_mask_length_check(self):
        with pytest.raises(ValueError):
            solve_ilp(boxed_lp([1, 1]), integer_mask=[True])

    def test_integer_feasible_true(self):
        assert integer_feasible(boxed_lp([0, 0], a_ub=[[1, 1]], b_ub=[3]))

    def test_integer_feasible_false(self):
        problem = LinearProgram(objective=[0], a_eq=[[2]], b_eq=[3],
                                lower=[Fraction(0)], upper=[Fraction(10)])
        assert not integer_feasible(problem)


class TestLexmin:
    def test_two_level(self):
        # Feasible: x + y >= 3 (as -x - y <= -3), box [0,5].
        problem = boxed_lp([0, 0], a_ub=[[-1, -1]], b_ub=[-3], hi=5)
        result = lexicographic_minimize(
            problem, [[1, 0], [0, 1]])
        # Lex-min (x, y): first drive x to 0, then y to 3.
        assert result.x == [0, 3]

    def test_order_matters(self):
        problem = boxed_lp([0, 0], a_ub=[[-1, -1]], b_ub=[-3], hi=5)
        result = lexicographic_minimize(problem, [[0, 1], [1, 0]])
        assert result.x == [3, 0]

    def test_single_level(self):
        problem = boxed_lp([0, 0], a_ub=[[-1, -1]], b_ub=[-2], hi=5)
        result = lexicographic_minimize(problem, [[1, 1]])
        assert result.objective == 2

    def test_empty_objectives_rejected(self):
        with pytest.raises(ValueError):
            lexicographic_minimize(boxed_lp([0]), [])

    def test_infeasible_propagates(self):
        problem = boxed_lp([0], a_ub=[[1]], b_ub=[-1])
        result = lexicographic_minimize(problem, [[1]])
        assert result.status is LPStatus.INFEASIBLE


class TestLinExpr:
    def test_arith(self):
        e = 2 * var("x") + var("y") - 3
        assert e.coeffs == {"x": Fraction(2), "y": Fraction(1)}
        assert e.const == -3

    def test_sub_cancels(self):
        e = var("x") - var("x")
        assert e.is_constant()

    def test_rsub(self):
        e = 5 - var("x")
        assert e.coeffs == {"x": Fraction(-1)} and e.const == 5

    def test_evaluate(self):
        e = var("x") + 2 * var("y") + 1
        assert e.evaluate({"x": 1, "y": 2}) == 6

    def test_comparison_builds_constraint(self):
        c = (var("x") + 1 <= 5)
        assert isinstance(c, Constraint)
        assert c.sense == "<="
        assert c.satisfied_by({"x": 4})
        assert not c.satisfied_by({"x": 5})

    def test_eq_constraint(self):
        c = var("x").eq(3)
        assert c.satisfied_by({"x": 3})
        assert not c.satisfied_by({"x": 2})

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            Constraint(LinExpr(), "<")


class TestProblem:
    def test_feasibility(self):
        p = Problem()
        x = p.add_variable("x", lower=0, upper=10)
        p.add_constraint(x >= 4)
        sol = p.solve()
        assert sol is not None and sol["x"] >= 4

    def test_minimize(self):
        p = Problem()
        x = p.add_variable("x", lower=0, upper=10)
        y = p.add_variable("y", lower=0, upper=10)
        p.add_constraint(x + y >= 3)
        sol = p.solve(objective=x + y)
        assert sol["x"] + sol["y"] == 3

    def test_lexmin(self):
        p = Problem()
        x = p.add_variable("x", lower=0, upper=10)
        y = p.add_variable("y", lower=0, upper=10)
        p.add_constraint(x + y >= 3)
        sol = p.lexmin([x, y])
        assert (sol["x"], sol["y"]) == (0, 3)

    def test_infeasible_returns_none(self):
        p = Problem()
        x = p.add_variable("x", lower=0, upper=1)
        p.add_constraint(x >= 2)
        assert p.solve() is None

    def test_undeclared_variable_rejected(self):
        p = Problem()
        with pytest.raises(KeyError):
            p.add_constraint(var("ghost") >= 0)

    def test_bounds_tighten(self):
        p = Problem()
        p.add_variable("x", lower=0, upper=10)
        p.add_variable("x", lower=2, upper=8)
        sol = p.solve(objective=var("x"))
        assert sol["x"] == 2

    def test_continuous_variable(self):
        p = Problem()
        x = p.add_variable("x", lower=0, upper=10, integer=False)
        p.add_constraint((2 * x).eq(3))
        sol = p.solve()
        assert sol["x"] == Fraction(3, 2)

    def test_clone_independent(self):
        p = Problem()
        x = p.add_variable("x", lower=0, upper=5)
        q = p.clone()
        q.add_constraint(x >= 4)
        assert p.solve(objective=x)["x"] == 0
        assert q.solve(objective=x)["x"] == 4


@given(st.integers(0, 6), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_ilp_matches_bruteforce_1d(bound, coeff):
    """min x s.t. coeff*x >= bound over integers equals ceil division."""
    p = Problem()
    x = p.add_variable("x", lower=0, upper=100)
    p.add_constraint(coeff * x >= bound)
    sol = p.solve(objective=x)
    expected = -(-bound // coeff)  # ceil(bound / coeff)
    assert sol["x"] == expected
