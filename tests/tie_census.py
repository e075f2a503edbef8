"""Tie census of the scheduler's dimension ILPs.

A dimension ILP can have several optimal points that differ in their
schedule coefficients.  Which one the solver returns then depends on how
the ILP is posed (row order, pricing), so such ties are where a change to
the formulation can move a schedule.  :func:`coefficient_ranges` pins
every objective level at its lexicographic optimum and takes the min and
max of each schedule coefficient (``c[...]``) over that optimal face;
a dimension has more than one optimal row exactly when some range is
wider than a point.

:func:`recording` collects the dimension ILPs of whatever runs inside it.
Run as a module, the census covers every dimension ILP of a serial
``repro table2`` run:

    PYTHONPATH=src python -m tests.tie_census --limit 0 --seed 0
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import math
import sys
import tempfile
from typing import Optional, Sequence

from repro.solver.lp import solve_lp
from repro.solver.problem import LinExpr, Problem, var

_SOLVE, _LEXMIN, _FOLD = (Problem.solve, Problem.lexmin,
                          Problem.fold_objectives)


def is_schedule_coefficient(name: str) -> bool:
    return name.startswith("c[")


@contextlib.contextmanager
def recording(into: list):
    """Append ``(problem, levels, result)`` for every top-level
    ``Problem.solve``/``Problem.lexmin`` call made inside the block, with
    a copy of the problem as solved; in the pipeline those are exactly
    the dimension ILPs.  A solve of an
    objective that ``Problem.fold_objectives`` folded records the levels
    it was folded from: pinning them one by one is the same optimal face
    as pinning the folded objective, and far easier for branch and bound
    than one equality with huge weights."""
    folded = {}

    def fold_objectives(self, objectives):
        out = _FOLD(self, objectives)
        if out is not None:
            folded[id(self)] = (out, list(objectives))
        return out

    def solve(self, objective=None, *args, **kwargs):
        result = _SOLVE(self, objective, *args, **kwargs)
        if kwargs.get("presolve", True):
            origin = folded.get(id(self))
            if origin is not None and origin[0] is objective:
                levels = origin[1]
            else:
                levels = [] if objective is None else [objective]
            into.append((self.clone(), levels, result))
        return result

    def lexmin(self, objectives, *args, **kwargs):
        result = _LEXMIN(self, objectives, *args, **kwargs)
        if kwargs.get("presolve", True):
            into.append((self.clone(), list(objectives), result))
        return result

    Problem.solve, Problem.lexmin = solve, lexmin
    Problem.fold_objectives = fold_objectives
    try:
        yield into
    finally:
        Problem.solve, Problem.lexmin = _SOLVE, _LEXMIN
        Problem.fold_objectives = _FOLD


def coefficient_ranges(problem: Problem, objectives: Sequence[LinExpr],
                       optimum: Optional[dict] = None
                       ) -> Optional[dict[str, tuple]]:
    """``{name: (min, max)}`` of every schedule coefficient over the
    optimal face of ``problem`` under the lexicographic ``objectives``,
    or ``None`` when the ILP is infeasible.  ``optimum``, a lexicographic
    optimum already found, saves solving for one.

    The LP relaxation of the pinned problem bounds each range first; an
    end that the relaxation already pins to the optimum's value is not
    searched with branch and bound."""
    if optimum is None:
        optimum = (_LEXMIN(problem, objectives) if len(objectives) > 1
                   else _SOLVE(problem, objectives[0] if objectives else None))
    if optimum is None:
        return None
    pinned = problem.clone()
    zero = set()
    for level in objectives:
        value = level.evaluate(optimum)
        pinned.add_constraint(level.eq(value))
        if value == level.const and all(
                c > 0 and problem._lower[n] == 0
                for n, c in level.coeffs.items()):
            # A positive sum of non-negative unknowns at its least value:
            # every term is zero on the whole face.
            zero |= level.coeffs.keys()
    for name in zero:
        pinned.add_constraint(var(name).eq(0))
    relaxation = pinned.lower_to_lp()
    ranges = {}
    for index, name in enumerate(problem.variables):
        if not is_schedule_coefficient(name):
            continue
        value = optimum[name]
        if name in zero:
            ranges[name] = (0, 0)
            continue
        ends = []
        for sign in (1, -1):
            row = [0] * relaxation.n_vars
            row[index] = sign
            bound = sign * solve_lp(relaxation.with_objective(row)).objective
            if (math.ceil(bound) if sign > 0 else math.floor(bound)) == value:
                ends.append(value)
            else:
                ends.append(_SOLVE(pinned, sign * var(name))[name])
        ranges[name] = tuple(ends)
    return ranges


def has_tie(ranges: Optional[dict]) -> bool:
    """True iff the optimal face holds more than one coefficient row."""
    return bool(ranges) and any(lo != hi for lo, hi in ranges.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=0,
                        help="operators per network (0 = all)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro import cli
    from repro.schedule import InfluencedScheduler

    ilps: list = []
    owners: list = []   # (index of the first ILP, kernel name) per run
    schedule = InfluencedScheduler.schedule

    def owned_schedule(self, *rest, **kwargs):
        owners.append((len(ilps), self.kernel.name))
        return schedule(self, *rest, **kwargs)

    InfluencedScheduler.schedule = owned_schedule
    try:
        with tempfile.TemporaryDirectory() as runs, recording(ilps), \
                contextlib.redirect_stdout(io.StringIO()):
            cli.main(["-q", "table2", "--jobs", "1", "--limit",
                      str(args.limit), "--seed", str(args.seed),
                      "--runs-dir", runs, "--no-checkpoint"])
    finally:
        InfluencedScheduler.schedule = schedule
    feasible = 0
    tied = []
    for index, (problem, objectives, result) in enumerate(ilps):
        if result is None:
            continue
        feasible += 1
        if has_tie(coefficient_ranges(problem, objectives, result)):
            tied.append(owners[bisect.bisect_right(owners, (index, "\uffff"))
                               - 1][1])
    print(f"dimension ILPs: {len(ilps)}, feasible: {feasible}, "
          f"with more than one optimal row: {len(tied)}")
    for name in tied:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
