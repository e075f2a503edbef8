"""Exact linear and integer-linear programming.

This package replaces the ILP core that the paper obtains from the isl
library.  It provides:

* :mod:`repro.solver.lp` — a two-phase primal simplex over exact rationals
  (Bland's rule, hence guaranteed termination).
* :mod:`repro.solver.ilp` — mixed-integer branch and bound on top of the LP.
* :mod:`repro.solver.lexmin` — lexicographic (multi-objective) minimization,
  the optimization mode used by isl's scheduler and by Algorithm 1.
* :mod:`repro.solver.problem` — a named-variable problem builder with a small
  linear-expression DSL, used by the constraint builders.
* :mod:`repro.solver.budget` — ambient wall-clock/pivot/node budgets; the
  hot loops above charge against the active budget and raise a typed
  :class:`repro.errors.SolverTimeout` when it runs out.

:class:`Problem` calls the simplex and branch and bound directly; there is
one solver.  Its solves are memoized by the lowered program's content
(:data:`repro.solver.problem.ILP_MEMO`) and never warm-started.
"""

from repro.solver.budget import SolveBudget, get_budget, use_budget
from repro.solver.lp import LinearProgram, LPResult, LPStatus, solve_lp
from repro.solver.ilp import BranchLimitExceeded, solve_ilp, integer_feasible
from repro.solver.lexmin import lexicographic_minimize
from repro.solver.problem import LinExpr, Constraint, Problem, var

__all__ = [
    "LinearProgram",
    "LPResult",
    "LPStatus",
    "solve_lp",
    "solve_ilp",
    "integer_feasible",
    "BranchLimitExceeded",
    "lexicographic_minimize",
    "LinExpr",
    "Constraint",
    "Problem",
    "var",
    "SolveBudget",
    "get_budget",
    "use_budget",
]
