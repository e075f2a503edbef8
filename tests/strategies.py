"""Hypothesis strategies shared by the solver property tests."""

from fractions import Fraction

from hypothesis import strategies as st

from repro.solver.problem import Constraint, LinExpr, Problem, var


def _coeff():
    return st.integers(min_value=-3, max_value=3)


@st.composite
def farkas_like_problems(draw):
    """A random small ILP in the scheduler's shape.

    Bounded integer unknowns (schedule coefficients), optional continuous
    multipliers linked through equality constraints (what Farkas
    linearization leaves before presolve), and a handful of inequality
    constraints over the unknowns.  Draws ``(problem, objective)``.
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
