"""Tests for the Farkas linearization machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import examples
from repro.obs import MetricsRegistry, Obs, use_obs
from repro.schedule import InfluencedScheduler, farkas
from repro.schedule.farkas import (
    FARKAS_MEMO,
    SymbolicAffineForm,
    _eliminate_equalities,
    _linearize,
    _normalized_inequalities,
    add_farkas_nonneg,
)
from repro.sets import Polyhedron, var
from repro.solver.problem import LinExpr, Problem
from tests.farkas_reference import raw_farkas_nonneg


def box(dims, lo, hi):
    cs = []
    for d in dims:
        cs.append(var(d) >= lo)
        cs.append(var(d) <= hi)
    return Polyhedron(dims, cs)


class TestSymbolicForm:
    def test_add_term_accumulates(self):
        form = SymbolicAffineForm()
        form.add_term("x", var("a"))
        form.add_term("x", var("b"))
        assert form.coefficient("x") == var("a") + var("b")

    def test_copy_independent(self):
        form = SymbolicAffineForm({"x": var("a")}, var("c"))
        clone = form.copy()
        clone.add_term("x", var("b"))
        assert form.coefficient("x") == var("a")


class TestEqualityElimination:
    def test_substitutes_into_form(self):
        # x == y on dims (x, y); form a*x + b*y  ->  (a+b)*y.
        dims, ineqs, form = _eliminate_equalities(
            ["x", "y"], [var("x") - var("y")], [],
            SymbolicAffineForm({"x": var("a"), "y": var("b")}))
        assert len(dims) == 1
        remaining = dims[0]
        assert form.coefficient(remaining) == var("a") + var("b")

    def test_inconsistent_constant_rejected(self):
        with pytest.raises(ValueError):
            _eliminate_equalities(["x"], [LinExpr(const=1)], [],
                                  SymbolicAffineForm())

    def test_trivial_inequality_dropped(self):
        dims, ineqs, _ = _eliminate_equalities(
            ["x"], [], [LinExpr(const=5)], SymbolicAffineForm())
        assert ineqs == []


class TestFarkasSoundness:
    def solve_coeffs(self, poly, lower=-4, upper=4):
        """Build the Farkas system for ``sum c_d d + c0 >= 0`` on poly with
        the coefficients as bounded unknowns."""
        problem = Problem()
        coeff_vars = {}
        for d in poly.dims:
            coeff_vars[d] = problem.add_variable(f"c_{d}", lower=lower,
                                                 upper=upper)
        c0 = problem.add_variable("c0", lower=lower, upper=upper)
        form = SymbolicAffineForm({d: coeff_vars[d] for d in poly.dims}, c0)
        add_farkas_nonneg(problem, "t", poly, form, set())
        return problem, coeff_vars, c0

    def test_valid_form_feasible(self):
        poly = box(["x"], 0, 10)
        problem, cv, c0 = self.solve_coeffs(poly)
        # c_x = 1, c0 = 0: x >= 0 on [0, 10] must be certifiable.
        problem.add_constraint(cv["x"].eq(1))
        problem.add_constraint(c0.eq(0))
        assert problem.solve() is not None

    def test_invalid_form_infeasible(self):
        poly = box(["x"], 0, 10)
        problem, cv, c0 = self.solve_coeffs(poly)
        # -x + 5 is negative at x=10: not nonneg on the box.
        problem.add_constraint(cv["x"].eq(-1))
        problem.add_constraint(c0.eq(5))
        assert problem.solve() is None

    def test_negative_certificate_needs_negative_allowed(self):
        # x - 10 <= 0 on [0,10]: 10 - x >= 0 certifiable.
        poly = box(["x"], 0, 10)
        problem, cv, c0 = self.solve_coeffs(poly, lower=-16, upper=16)
        problem.add_constraint(cv["x"].eq(-1))
        problem.add_constraint(c0.eq(10))
        assert problem.solve() is not None

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_farkas_matches_bruteforce(self, a, b, c0):
        """Property: the Farkas system is feasible with pinned coefficients
        exactly when the form is nonnegative on every integer point."""
        poly = box(["x", "y"], 0, 3)
        truly_nonneg = all(a * x + b * y + c0 >= 0
                           for x in range(4) for y in range(4))
        problem, cv, c0_var = self.solve_coeffs(poly)
        problem.add_constraint(cv["x"].eq(a))
        problem.add_constraint(cv["y"].eq(b))
        problem.add_constraint(c0_var.eq(c0))
        feasible = problem.solve() is not None
        # Farkas over a box (integer vertices) is exact.
        assert feasible == truly_nonneg

    def test_equality_heavy_polyhedron(self):
        # Dependence-style set: x == y, 0 <= y <= 7.
        poly = Polyhedron(["x", "y"],
                          [(var("x") - var("y")).eq(0),
                           var("y") >= 0, var("y") <= 7])
        problem, cv, c0 = self.solve_coeffs(poly)
        # x - y is identically 0 on the set: certifiable.
        problem.add_constraint(cv["x"].eq(1))
        problem.add_constraint(cv["y"].eq(-1))
        problem.add_constraint(c0.eq(0))
        assert problem.solve() is not None

    def test_multiplier_count_reduced_by_equalities(self):
        def n_multipliers(poly):
            # One per remaining inequality, plus the constant multiplier.
            equalities, inequalities = _normalized_inequalities(poly)
            _, kept, _ = _eliminate_equalities(
                poly.dims, equalities, inequalities,
                SymbolicAffineForm({}, var("c")))
            return len(kept) + 1

        plain = box(["x", "y"], 0, 3)
        fused = plain.with_constraints([(var("x") - var("y")).eq(0)])
        # Eliminating the equality drops a dimension and its constraints.
        assert n_multipliers(fused) <= n_multipliers(plain)


# Unknowns of the generated forms: two bounded like schedule coefficients,
# one free.  The projection must not lean on the bounds.
BOUNDED, FREE = ("a", "b"), "f"


@st.composite
def blocks(draw):
    """A small non-empty polyhedron, a symbolic form over ``a``, ``b``,
    ``f`` and an integer point of those unknowns."""
    dims = ["x", "y", "z"][:draw(st.integers(1, 3))]
    small = st.integers(-2, 2)
    inside = {d: draw(small) for d in dims}
    constraints = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = {d: draw(small) for d in dims}
        at = sum(c * inside[d] for d, c in coeffs.items())
        if draw(st.integers(0, 4)) == 0:
            constraints.append(LinExpr(coeffs, -at).eq(0))
        else:
            constraints.append(LinExpr(coeffs, draw(st.integers(0, 3)) - at)
                               >= 0)
    unknowns = (*BOUNDED, FREE)

    def symbolic():
        return LinExpr({u: draw(small) for u in unknowns}, draw(small))

    form = SymbolicAffineForm({d: symbolic() for d in dims}, symbolic())
    point = {u: draw(st.integers(-3, 3)) for u in BOUNDED}
    point[FREE] = draw(st.integers(-12, 12))
    return Polyhedron(dims, constraints), form, point


class TestProjection:
    @given(blocks())
    @settings(max_examples=150, deadline=None)
    def test_projected_rows_hold_exactly_when_the_raw_block_is_feasible(
            self, case):
        """Property: an integer point of the form's unknowns satisfies
        the projected rows exactly when the raw block, with the unknowns
        pinned there, has non-negative multipliers."""
        poly, form, point = case
        multipliers, rows = _linearize(poly, form)
        assert multipliers == ()
        projected = all(c.satisfied_by(point) for c in rows)

        raw = Problem()
        for name in BOUNDED:
            raw.add_variable(name, lower=-3, upper=3)
        raw.add_variable(FREE, lower=None, upper=None)
        raw_farkas_nonneg(raw, "t", poly, form)
        for name, value in point.items():
            raw.add_constraint(var(name).eq(value))
        assert projected == (raw.solve() is not None)

    def test_a_row_already_present_is_not_added_again(self):
        poly = box(["x"], 0, 4)
        form = SymbolicAffineForm({"x": var("a")}, var("c"))
        problem = Problem()
        for name in ("a", "c"):
            problem.add_variable(name, lower=-2, upper=2)
        present = set()
        add_farkas_nonneg(problem, "f", poly, form, present)
        rows = list(problem.constraints)
        assert rows and set(rows) == present
        add_farkas_nonneg(problem, "g", poly, form, present)
        assert problem.constraints == rows

    def test_blocks_are_keyed_by_content(self):
        poly = box(["x", "y"], 0, 3)
        shuffled = Polyhedron(["x", "y"], poly.constraints[::-1])
        form = SymbolicAffineForm({"x": var("a"), "y": var("b")}, var("c"))
        same = SymbolicAffineForm({"y": var("b"), "x": var("a")}, var("c"))
        assert _linearize(poly, form) is _linearize(shuffled, same)


@pytest.fixture
def fresh_farkas_memo():
    """An empty ``cache.farkas`` memo, emptied again afterwards so that
    no block built under a patched cap outlives the test."""
    FARKAS_MEMO.clear()
    yield FARKAS_MEMO
    FARKAS_MEMO.clear()


class TestProjectionCap:
    def test_blocks_over_the_cap_keep_their_multipliers(
            self, monkeypatch, fresh_farkas_memo):
        kernel = examples.running_example(16)
        expected = InfluencedScheduler(kernel).schedule(None).pretty()
        fresh_farkas_memo.clear()
        monkeypatch.setattr(farkas, "MAX_PROJECTION_ROWS", 1)
        columns = []
        original = Problem.solve

        def recording_solve(self, *args, **kwargs):
            columns.extend(self.variables)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Problem, "solve", recording_solve)
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            schedule = InfluencedScheduler(kernel).schedule(None)
        assert schedule.pretty() == expected
        assert any(".l" in name for name in columns)
        assert obs.metrics.counters.get("solver.farkas.unprojected", 0) > 0

    def test_blocks_under_the_cap_are_projected(self, fresh_farkas_memo):
        kernel = examples.running_example(16)
        obs = Obs(metrics=MetricsRegistry())
        with use_obs(obs):
            InfluencedScheduler(kernel).schedule(None)
        counters = obs.metrics.counters
        assert "solver.farkas.unprojected" not in counters
        assert counters["cache.farkas.misses"] == len(fresh_farkas_memo)
