"""Every dimension ILP decides what the raw Farkas formulation decides.

``DimensionProblem`` adds Farkas blocks whose multipliers were projected
out once per dependence (``repro.schedule.farkas``), so its LP differs from
the raw formulation's by design: it has no multiplier columns and other
rows.  What must not differ is the ILP's answer.  The tests schedule real
kernels twice, influenced and plain: once as the program does, and once
with the raw emission of ``tests/farkas_reference.py``, which declares
every multiplier as a continuous column.  They record every dimension ILP
with its result and compare them pairwise.

* ``test_dimension_ilps_match_the_raw_formulation``: the same objectives,
  the same feasibility and the same optimal value at every objective
  level; where the two answers differ, each is feasible, hence optimal,
  in the other formulation.
* ``test_dimension_ilps_return_the_raw_optimum``: the same optimal
  schedule coefficients, ``u`` and ``w``, and the same schedule.  Where an
  ILP has several optima the simplex returns the first it reaches, and
  the two LPs can reach different ones: the plain ``depthwise_conv``
  kernel does at two tied ILPs, and is a strict expected failure until a
  tie-break makes the optimum unique.  The tie census
  (``tests/tie_census.py``) counts the ILPs with more than one optimal
  row.
"""

import functools
import re

import pytest

from repro.influence import build_influence_tree
from repro.ir import examples
from repro.schedule import InfluencedScheduler
from repro.schedule import constraints as schedule_constraints
from repro.schedule.constraints import DimensionProblem
from repro.workloads import operators
from tests.farkas_reference import raw_farkas_nonneg
from repro.solver.problem import var
from tests.tie_census import coefficient_ranges, has_tie, recording

KERNELS = {
    "attention_block": lambda: operators.attention_block_op("attn"),
    "depthwise_conv": lambda: operators.depthwise_conv_op("dwconv"),
    "jacobi_2d": lambda: examples.jacobi_2d(16),
    "heat_2d": lambda: examples.heat_2d(16),
    "softmax": lambda: operators.softmax_like_op("softmax"),
    "transpose": lambda: operators.transpose2d_op("transpose"),
    "running_example": lambda: examples.running_example(16),
}

MULTIPLIER = re.compile(r"f\d+\.l\d+$")


def _raw_farkas(problem, prefix, poly, form, present):
    raw_farkas_nonneg(problem, prefix, poly, form)


def _count_builders(monkeypatch, builders: dict) -> None:
    """Count the coincidence and influence rows the builders add."""
    for name in ("add_coincidence", "add_raw_constraints"):
        original = getattr(DimensionProblem, name)

        def counting(self, items, _original=original, _name=name):
            items = list(items)
            builders[_name] = builders.get(_name, 0) + len(items)
            return _original(self, items)

        monkeypatch.setattr(DimensionProblem, name, counting)


def schedule_all(kernel, influenced: bool, raw: bool):
    """``(schedule, dimension ILPs, builder counts)`` of one kernel."""
    ilps: list = []
    builders: dict = {}
    with pytest.MonkeyPatch.context() as mp, recording(ilps):
        _count_builders(mp, builders)
        if raw:
            mp.setattr(schedule_constraints, "add_farkas_nonneg", _raw_farkas)
        tree = build_influence_tree(kernel) if influenced else None
        schedule = InfluencedScheduler(kernel).schedule(tree)
    return schedule, ilps, builders


def _decision(result):
    """A solve's values of everything but the Farkas multipliers."""
    if result is None:
        return None
    return {n: v for n, v in result.items() if not MULTIPLIER.match(n)}


def _feasible_in(problem, point) -> bool:
    """True iff ``problem`` is feasible with its unknowns pinned to
    ``point`` (multipliers left free)."""
    pinned = problem.clone()
    for name, value in point.items():
        pinned.add_constraint(var(name).eq(value))
    return pinned.solve() is not None


@functools.lru_cache(maxsize=None)
def _pairs(name, influenced):
    kernel = KERNELS[name]()
    schedule, ilps, builders = schedule_all(kernel, influenced, raw=False)
    raw_schedule, raw_ilps, _ = schedule_all(kernel, influenced, raw=True)
    assert ilps and len(ilps) == len(raw_ilps)
    return (schedule.pretty(), raw_schedule.pretty(),
            list(zip(ilps, raw_ilps)), builders)


@pytest.mark.parametrize("influenced", [True, False],
                         ids=["influenced", "plain"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_dimension_ilps_match_the_raw_formulation(name, influenced):
    _, _, pairs, builders = _pairs(name, influenced)
    raw_multipliers = 0
    for (problem, levels, result), (raw, raw_levels, raw_result) in pairs:
        assert [o.signature() for o in levels] == \
            [o.signature() for o in raw_levels]
        # The program's ILPs carry no multiplier column; the raw ones do.
        assert not any(MULTIPLIER.match(n) for n in problem.variables)
        raw_multipliers += sum(bool(MULTIPLIER.match(n))
                               for n in raw.variables)
        decision, raw_decision = _decision(result), _decision(raw_result)
        assert (decision is None) == (raw_decision is None)
        if decision == raw_decision:
            continue
        # Another optimum of a tie: the same objective values, and each
        # answer feasible, hence optimal, in the other formulation.
        assert [o.evaluate(decision) for o in levels] == \
            [o.evaluate(raw_decision) for o in levels]
        assert _feasible_in(raw, decision)
        assert _feasible_in(problem, raw_decision)
    assert raw_multipliers > 0
    if influenced and name == "running_example":
        # Forked coincidence blocks and injected influence rows are
        # exercised.
        assert builders.get("add_coincidence", 0) > 0
        assert builders.get("add_raw_constraints", 0) > 0


def _variants():
    for name in sorted(KERNELS):
        for influenced in (True, False):
            marks = ()
            if (name, influenced) == ("depthwise_conv", False):
                # Parameters K and P (and K and Q) can take the same
                # proximity bound; the raw LP returns the optimum with K,
                # the projected one the optimum with P (and Q).
                marks = pytest.mark.xfail(
                    strict=True, reason="two tied dimension ILPs return "
                    "another optimum than the raw formulation's")
            yield pytest.param(name, influenced, marks=marks, id=(
                f"{name}-{'influenced' if influenced else 'plain'}"))


@pytest.mark.parametrize("name, influenced", _variants())
def test_dimension_ilps_return_the_raw_optimum(name, influenced):
    pretty, raw_pretty, pairs, _ = _pairs(name, influenced)
    for (_, _, result), (_, _, raw_result) in pairs:
        assert _decision(result) == _decision(raw_result)
    assert pretty == raw_pretty


#: Dimension ILPs with more than one optimal coefficient row, per kernel
#: and variant, as the program poses them.
TIES = {("depthwise_conv", True): 1, ("depthwise_conv", False): 2,
        ("transpose", False): 1}


@pytest.mark.parametrize("influenced", [True, False],
                         ids=["influenced", "plain"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_tie_census(name, influenced):
    """Every schedule coefficient's range over the optimal face holds the
    returned optimum, and the ties are the known ones."""
    _, _, pairs, _ = _pairs(name, influenced)
    tied = 0
    for (problem, levels, result), _raw in pairs:
        ranges = coefficient_ranges(problem, levels, result)
        if ranges is None:
            continue
        assert ranges
        for coeff, (low, high) in ranges.items():
            assert low <= result[coeff] <= high
        tied += has_tie(ranges)
    assert tied == TIES.get((name, influenced), 0)
