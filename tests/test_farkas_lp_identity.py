"""Every dimension ILP lowers to the LP of the raw Farkas formulation.

``DimensionProblem`` adds Farkas blocks whose multipliers were eliminated
once per dependence (cached block templates) and puts the blocks' bound
rows after every other row.  The claim is that this is exactly the LP that
presolving the raw blocks produces.  The test schedules real kernels twice,
influenced and plain: once as the program does, and once with the raw
emission of ``tests/farkas_reference.py``.  It records every problem handed
to ``Problem.solve``/``Problem.lexmin`` and compares them pairwise.  The raw
problem goes through the reference restart-scan presolve, and the result
must equal the program's problem after its own ``presolved``, which must
eliminate nothing: same columns, bounds and integrality, and the same
objective row, ``a_ub``/``b_ub``/``a_eq``/``b_eq`` and integer rows.
"""

import pytest

from repro.influence import build_influence_tree
from repro.ir import examples
from repro.schedule import InfluencedScheduler
from repro.schedule import constraints as schedule_constraints
from repro.schedule.constraints import DimensionProblem
from repro.solver.problem import Problem
from repro.workloads import operators
from tests.farkas_reference import raw_farkas_nonneg, restart_scan_presolved

KERNELS = {
    "attention_block": lambda: operators.attention_block_op("attn"),
    "depthwise_conv": lambda: operators.depthwise_conv_op("dwconv"),
    "jacobi_2d": lambda: examples.jacobi_2d(16),
    "heat_2d": lambda: examples.heat_2d(16),
    "softmax": lambda: operators.softmax_like_op("softmax"),
    "transpose": lambda: operators.transpose2d_op("transpose"),
    "running_example": lambda: examples.running_example(16),
}


def _raw_farkas(problem, prefix, poly, form):
    raw_farkas_nonneg(problem, prefix, poly, form)
    return []


def _record_solves(monkeypatch, into: list, builders: dict) -> None:
    """Record ``(problem, objectives)`` of every top-level solve, and count
    the coincidence and influence rows the builders add."""
    solve, lexmin = Problem.solve, Problem.lexmin

    def recording_solve(self, objective=None, *args, **kwargs):
        if kwargs.get("presolve", True):
            into.append((self, [] if objective is None else [objective]))
        return solve(self, objective, *args, **kwargs)

    def recording_lexmin(self, objectives, *args, **kwargs):
        if kwargs.get("presolve", True):
            into.append((self, list(objectives)))
        return lexmin(self, objectives, *args, **kwargs)

    monkeypatch.setattr(Problem, "solve", recording_solve)
    monkeypatch.setattr(Problem, "lexmin", recording_lexmin)
    for name in ("add_coincidence", "add_raw_constraints"):
        original = getattr(DimensionProblem, name)

        def counting(self, items, _original=original, _name=name):
            items = list(items)
            builders[_name] = builders.get(_name, 0) + len(items)
            return _original(self, items)

        monkeypatch.setattr(DimensionProblem, name, counting)


def _schedule_all(kernel, influenced: bool, raw: bool):
    solves: list = []
    builders: dict = {}
    with pytest.MonkeyPatch.context() as mp:
        _record_solves(mp, solves, builders)
        if raw:
            mp.setattr(schedule_constraints, "add_farkas_nonneg", _raw_farkas)
        tree = build_influence_tree(kernel) if influenced else None
        schedule = InfluencedScheduler(kernel).schedule(tree)
    return schedule, solves, builders


def _lowered(problem: Problem, objectives) -> tuple:
    lp = problem.lower_to_lp(objectives[0] if objectives else None)
    rows = [problem._row(obj) for obj in objectives[1:]]
    return (problem.variables, problem.integer_mask(), lp.lower, lp.upper,
            lp.objective, rows, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq,
            lp.integer_rows())


def _protected(objectives) -> set:
    protect = set()
    for obj in objectives:
        protect |= obj.variables()
    return protect


@pytest.mark.parametrize("influenced", [True, False],
                         ids=["influenced", "plain"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_dimension_ilps_match_the_raw_formulation(name, influenced):
    kernel = KERNELS[name]()
    schedule, solves, builders = _schedule_all(kernel, influenced, raw=False)
    raw_schedule, raw_solves, _ = _schedule_all(kernel, influenced, raw=True)
    assert schedule.pretty() == raw_schedule.pretty()
    assert solves and len(solves) == len(raw_solves)
    for (problem, objectives), (raw, raw_objectives) in zip(solves,
                                                            raw_solves):
        assert [o.signature() for o in objectives] == \
            [o.signature() for o in raw_objectives]
        protect = _protected(objectives)
        reduced, eliminated = problem.presolved(protect=protect)
        assert eliminated == []
        if all(c.expr.coeffs for c in problem.constraints):
            assert reduced is problem
        expected, _ = restart_scan_presolved(raw, protect)
        assert _lowered(reduced, objectives) == _lowered(expected, objectives)
    if influenced and name == "running_example":
        # The placement of bound rows after forked coincidence blocks and
        # injected influence rows is exercised.
        assert builders.get("add_coincidence", 0) > 0
        assert builders.get("add_raw_constraints", 0) > 0
