"""Property test: the fraction-free tableau takes the rational tableau's pivots.

``repro.solver.lp`` keeps integer rows over one denominator each; the
test-only reference in ``tests/fraction_simplex.py`` keeps every entry as a
``Fraction``.  Both apply Bland's rule, so on every program they must agree
exactly: status, primal point, objective, final basis and pivot count.  The
generator covers rational coefficients, degenerate rows (ties in the ratio
test), equality-heavy systems that need artificials, free, reflected and
shifted variables, and phase one's "drive artificials out" pivots.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Obs, use_obs
from repro.solver.lp import LinearProgram, LPStatus, solve_lp
from tests.fraction_simplex import reference_solve_lp


def _rational():
    return st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                     st.sampled_from([1, 1, 1, 2, 3]))


# (lower, upper) per variable kind: shifted, boxed, reflected, free.
_BOUNDS = {
    "nonneg": st.tuples(st.just(0), st.none()),
    "shifted": st.tuples(st.integers(-3, 3), st.none()),
    "boxed": st.tuples(st.integers(-3, 1), st.integers(1, 4)),
    "reflected": st.tuples(st.none(), st.integers(-2, 4)),
    "free": st.tuples(st.none(), st.none()),
}


@st.composite
def linear_programs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    lower, upper = [], []
    for _ in range(n):
        lo, hi = draw(st.sampled_from(sorted(_BOUNDS)).flatmap(
            _BOUNDS.__getitem__))
        lower.append(None if lo is None else Fraction(lo))
        upper.append(None if hi is None else Fraction(hi))

    def rows(max_rows):
        return draw(st.lists(st.lists(_rational(), min_size=n, max_size=n),
                             max_size=max_rows))

    # Zero right-hand sides make degenerate vertices, and so ratio ties.
    rhs = st.one_of(st.just(Fraction(0)), _rational())
    a_ub = rows(4)
    b_ub = [draw(rhs) for _ in a_ub]
    a_eq = rows(4)
    b_eq = [draw(rhs) for _ in a_eq]
    # Redundant copies: a scaled equality leaves an artificial basic at
    # zero after phase one; a repeated inequality ties the ratio test.
    if a_eq and draw(st.booleans()):
        k = draw(st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2),
                                  Fraction(3)]))
        a_eq.append([k * a for a in a_eq[0]])
        b_eq.append(k * b_eq[0])
    if a_ub and draw(st.booleans()):
        a_ub.append(list(a_ub[0]))
        b_ub.append(b_ub[0])
    return LinearProgram(
        objective=draw(st.lists(_rational(), min_size=n, max_size=n)),
        a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)


def _assert_same_pivots(lp):
    expected, tableau = reference_solve_lp(lp)
    obs = Obs(metrics=MetricsRegistry())
    with use_obs(obs):
        got = solve_lp(lp)
    assert got.status is expected.status
    assert got.x == expected.x
    assert got.objective == expected.objective
    assert got.basis == expected.basis
    assert obs.metrics.counters["solver.pivots"] == tableau.pivots
    return got, tableau


@given(lp=linear_programs())
@settings(max_examples=300, deadline=None)
def test_pivots_match_the_rational_tableau(lp):
    _assert_same_pivots(lp)


def test_negative_pivot_driving_an_artificial_out():
    # x + y = 1, -2x = 0: phase one ends with an artificial basic at zero
    # whose row has -2 under x, so driving it out pivots on a negative.
    lp = LinearProgram(objective=[0, 0], a_eq=[[1, 1], [-2, 0]], b_eq=[1, 0])
    _, tableau = _assert_same_pivots(lp)
    assert tableau.negative_driveouts == 1


def test_rational_equalities_with_free_and_reflected_variables():
    lp = LinearProgram(
        objective=[Fraction(1, 2), Fraction(-1, 3), 1],
        a_ub=[[Fraction(2, 3), 1, 0], [1, Fraction(-1, 2), Fraction(3, 2)]],
        b_ub=[Fraction(5, 2), 4],
        a_eq=[[1, 1, 1], [Fraction(1, 3), 0, Fraction(-1, 2)]],
        b_eq=[Fraction(7, 3), 0],
        lower=[None, None, Fraction(-2)], upper=[Fraction(3), None, None])
    _assert_same_pivots(lp)


def test_degenerate_ties_in_the_ratio_test():
    # Three rows bound x at the same ratio 0: Bland's tie-break decides.
    lp = LinearProgram(objective=[-1, -1],
                       a_ub=[[1, 0], [2, -1], [1, 1], [1, 0]],
                       b_ub=[0, 0, 2, 0])
    result, _ = _assert_same_pivots(lp)
    assert result.status is LPStatus.OPTIMAL
