"""The exact affine layer keeps one canonical scalar.

A value is an ``int`` when it is whole and a ``Fraction`` only when its
denominator is greater than 1.  ``frac`` is the one coercion and ``div``
the exact division; every site that divides a coefficient must give the
exact rational, canonicalized, for non-integral quotients too (true
division of two ints would give a float).  The pipeline test compiles the
running example and the four golden families and checks every
dimension-ILP row, dependence polyhedron and codegen bound.
"""

from fractions import Fraction

import pytest

from repro.codegen import generate_ast
from repro.codegen.ast import Guard, Loop, StatementCall, walk
from repro.codegen.tiling import tile_band
from repro.deps.analysis import compute_dependences
from repro.ir import examples
from repro.linalg import Matrix
from repro.linalg.rational import div, frac
from repro.pipeline.akg import VARIANTS, AkgPipeline
from repro.schedule import InfluencedScheduler
from repro.schedule.farkas import SymbolicAffineForm, _eliminate_equalities
from repro.sets import Polyhedron
from repro.solver.lp import LinearProgram, LPStatus, solve_lp
from repro.solver.problem import LinExpr, Problem, eliminate_pinned, var
from repro.verify.snapshot import GOLDEN_FAMILIES, _family_builders


def canonical(value) -> bool:
    return type(value) is int or (type(value) is Fraction
                                  and value.denominator > 1)


def assert_canonical(expr: LinExpr) -> None:
    values = list(expr.coeffs.values()) + [expr.const]
    assert all(canonical(v) for v in values), expr.coeffs
    assert all(expr.coeffs.values()), "zero coefficient stored"


class TestCanonicalizer:
    @pytest.mark.parametrize("value, expected", [
        (3, 3), (-7, -7), (Fraction(6, 3), 2), (Fraction(0), 0),
        ("4/2", 2), ("-5", -5)])
    def test_whole_values_become_int(self, value, expected):
        result = frac(value)
        assert type(result) is int and result == expected

    @pytest.mark.parametrize("value", [Fraction(1, 2), "1/3", "-7/4"])
    def test_non_integral_values_stay_fraction(self, value):
        result = frac(value)
        assert type(result) is Fraction and result == Fraction(value)

    @pytest.mark.parametrize("value", [2.0, 0.5, True, False, None, [1]])
    def test_floats_and_bools_are_rejected(self, value):
        with pytest.raises(TypeError):
            frac(value)

    def test_linexpr_rejects_floats(self):
        with pytest.raises(TypeError):
            LinExpr({"x": 1.5})
        with pytest.raises(TypeError):
            var("x") * 2.0

    @pytest.mark.parametrize("a, b, expected", [
        (6, 3, 2), (-6, 4, Fraction(-3, 2)), (1, 3, Fraction(1, 3)),
        (Fraction(1, 2), Fraction(1, 4), 2), (Fraction(3, 2), 3,
                                              Fraction(1, 2))])
    def test_div_is_exact_and_canonical(self, a, b, expected):
        result = div(a, b)
        assert result == expected and canonical(result)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            div(1, 0)


class TestLinExpr:
    def test_whole_sum_of_fractions_is_int(self):
        half = var("x") * Fraction(1, 2)
        total = half + half
        assert total.coeffs == {"x": 1} and type(total.coeffs["x"]) is int
        assert_canonical(total)

    def test_cancellation_drops_the_coefficient(self):
        expr = var("x") * Fraction(1, 3) - var("x") * Fraction(1, 3) + 2
        assert expr.coeffs == {} and type(expr.const) is int

    def test_constructor_canonicalizes(self):
        expr = LinExpr({"x": Fraction(4, 2), "y": 0}, Fraction(9, 3))
        assert expr.coeffs == {"x": 2} and expr.const == 3
        assert_canonical(expr)

    def test_evaluate_is_canonical(self):
        expr = var("x") * Fraction(1, 2) + Fraction(1, 2)
        assert type(expr.evaluate({"x": 1})) is int
        assert expr.evaluate({"x": 2}) == Fraction(3, 2)

    def test_substitute_matches_the_arithmetic(self):
        expr = var("a") * 3 + var("b") * 2 + 1
        replacement = var("b") * Fraction(-2, 3) + var("c") + Fraction(1, 3)
        got = expr.substitute("a", replacement)
        without = var("b") * 2 + 1
        assert got == without + 3 * replacement
        assert list(got.coeffs) == ["c"] and got.const == 2
        assert_canonical(got)


class TestExactDivisionSites:
    def test_fourier_motzkin_non_integral(self):
        # 2x + 3y >= 1 and 3y <= 2x + 5: eliminating y leaves
        # (2x + 5)/3 - (1 - 2x)/3 >= 0, i.e. 4/3 x + 4/3 >= 0.
        poly = Polyhedron(["x", "y"], [2 * var("x") + 3 * var("y") >= 1,
                                       3 * var("y") <= 2 * var("x") + 5])
        (row,) = poly.eliminate("y").constraints
        assert row.sense == ">="
        assert row.expr.coeffs == {"x": Fraction(4, 3)}
        assert row.expr.const == Fraction(4, 3)
        assert_canonical(row.expr)

    def test_bounds_of_non_integral(self):
        poly = Polyhedron(["x", "y"], [2 * var("x") + 3 * var("y") >= 1,
                                       var("y") * 2 <= 4])
        lowers, uppers = poly.bounds_of("y")
        assert [(lo.coeffs, lo.const) for lo in lowers] == \
            [({"x": Fraction(-2, 3)}, Fraction(1, 3))]
        assert [(up.coeffs, up.const) for up in uppers] == [({}, 2)]
        assert type(uppers[0].const) is int
        for expr in lowers + uppers:
            assert_canonical(expr)

    def test_equality_substitution_non_integral(self):
        # 2x + 4y == 2 gives y = 1/2 - x/2; y >= 0 becomes 1/2 - x/2 >= 0.
        poly = Polyhedron(["x", "y"], [(2 * var("x") + 4 * var("y")).eq(2),
                                       var("y") >= 0])
        (row,) = poly.eliminate("y").constraints
        assert row.expr.coeffs == {"x": Fraction(-1, 2)}
        assert row.expr.const == Fraction(1, 2)
        assert_canonical(row.expr)

    def test_presolve_elimination_non_integral(self):
        problem = Problem()
        x = problem.add_variable("x", lower=0, upper=5)
        lam = problem.add_variable("l", lower=0, integer=False)
        problem.add_constraint((2 * lam - x).eq(1))
        _, bounds, trail = eliminate_pinned(
            problem.constraints, {"l"}, problem._lower, problem._upper)
        (name, expr), = trail
        assert name == "l"
        assert expr.coeffs == {"x": Fraction(1, 2)}
        assert expr.const == Fraction(1, 2)
        assert_canonical(expr)
        for row in bounds:
            assert_canonical(row.expr)

    def test_presolve_elimination_whole(self):
        problem = Problem()
        x = problem.add_variable("x", lower=0, upper=5)
        lam = problem.add_variable("l", lower=0, integer=False)
        problem.add_constraint((2 * lam - 2 * x).eq(4))
        _, _, [(_, expr)] = eliminate_pinned(
            problem.constraints, {"l"}, problem._lower, problem._upper)
        assert expr.coeffs == {"x": 1} and expr.const == 2
        assert_canonical(expr)

    def test_farkas_equality_elimination_non_integral(self):
        # 2i - j - 1 == 0 pins i = (j + 1)/2.
        form = SymbolicAffineForm({"i": var("a")}, LinExpr())
        dims, inequalities, reduced = _eliminate_equalities(
            ["i", "j"], [2 * var("i") - var("j") - 1], [var("i")], form)
        assert dims == ["j"]
        (ineq,) = inequalities
        assert ineq.coeffs == {"j": Fraction(1, 2)}
        assert ineq.const == Fraction(1, 2)
        assert_canonical(ineq)
        assert reduced.coeffs["j"].coeffs == {"a": Fraction(1, 2)}
        assert reduced.const.coeffs == {"a": Fraction(1, 2)}
        for expr in list(reduced.coeffs.values()) + [reduced.const]:
            assert_canonical(expr)

    def test_matrix_elimination(self):
        mat = Matrix([[2, 1], [1, 3]])
        red, pivots = mat.rref()
        assert pivots == [0, 1]
        assert all(type(x) is int for row in red.rows for x in row)
        inverse = mat.inverse()
        assert inverse.rows == [[Fraction(3, 5), Fraction(-1, 5)],
                                [Fraction(-1, 5), Fraction(2, 5)]]
        assert Matrix([[2, 1]]).nullspace() == [[Fraction(-1, 2), 1]]
        for row in inverse.rows + Matrix([[2, 1]]).nullspace():
            assert all(canonical(x) for x in row)
        assert Matrix([[Fraction(4, 2)]]).rows == [[2]]
        assert type(Matrix([[Fraction(4, 2)]]).rows[0][0]) is int

    def test_linear_program_canonical_in_and_out(self):
        lp = LinearProgram([Fraction(2, 2)], a_ub=[[-2]], b_ub=[-1])
        assert type(lp.objective[0]) is int
        result = solve_lp(lp)
        assert result.status is LPStatus.OPTIMAL
        assert result.x == [Fraction(1, 2)] and canonical(result.x[0])
        whole = solve_lp(LinearProgram([1], a_ub=[[-2]], b_ub=[-4]))
        assert whole.x == [2] and type(whole.x[0]) is int
        assert type(whole.objective) is int
        with pytest.raises(TypeError):
            LinearProgram([1.0])


def test_tiling_ceiling_is_exact_for_large_extents():
    # Float division would round 2**60 + 1 down and drop the last tile.
    n = 2 ** 60 + 1
    kernel = examples.matmul(n)
    schedule = InfluencedScheduler(kernel).schedule()
    ast = generate_ast(kernel, schedule)
    assert tile_band(ast, schedule, kernel.params, (2, 2)) == 2
    tile_loops = [node for node in walk(ast)
                  if isinstance(node, Loop) and node.var.endswith("T")]
    assert tile_loops
    for loop in tile_loops:
        (upper,) = loop.uppers
        assert upper.const == 2 ** 59 and type(upper.const) is int


def _kernels():
    builders = _family_builders()
    yield "running_example", lambda: examples.running_example(16)
    for family in GOLDEN_FAMILIES:
        yield family, builders[family]


@pytest.mark.parametrize("name, build", list(_kernels()),
                         ids=[name for name, _ in _kernels()])
def test_pipeline_values_are_canonical(name, build, monkeypatch):
    kernel = build()
    solves = []
    solve, lexmin = Problem.solve, Problem.lexmin

    def recording_solve(self, objective=None, *args, **kwargs):
        solves.append((self, [] if objective is None else [objective]))
        return solve(self, objective, *args, **kwargs)

    def recording_lexmin(self, objectives, *args, **kwargs):
        solves.append((self, list(objectives)))
        return lexmin(self, objectives, *args, **kwargs)

    monkeypatch.setattr(Problem, "solve", recording_solve)
    monkeypatch.setattr(Problem, "lexmin", recording_lexmin)
    pipeline = AkgPipeline(sample_blocks=1)
    compiled = [pipeline.compile(kernel, variant) for variant in VARIANTS]

    assert solves
    for problem, objectives in solves:
        for constraint in problem.constraints:
            assert_canonical(constraint.expr)
        for objective in objectives:
            assert_canonical(objective)
        for bound in list(problem._lower.values()) + \
                list(problem._upper.values()):
            assert bound is None or canonical(bound)

    relations = compute_dependences(kernel)
    assert relations
    for rel in relations:
        for constraint in rel.polyhedron.constraints:
            assert_canonical(constraint.expr)

    n_loops = 0
    for operator in compiled:
        for launch in operator.launches:
            for node in walk(launch.ast):
                if isinstance(node, Loop):
                    n_loops += 1
                    for expr in node.lowers + node.uppers:
                        assert_canonical(expr)
                elif isinstance(node, Guard):
                    for condition in node.conditions:
                        assert_canonical(condition.expr)
                elif isinstance(node, StatementCall):
                    for expr in node.iterator_exprs.values():
                        assert_canonical(expr)
    assert n_loops
