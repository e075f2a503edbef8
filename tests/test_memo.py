"""The one memo primitive and the caches built on it."""

import pytest

from repro.deps.analysis import DEPENDENCES_MEMO, compute_dependences
from repro.errors import BranchLimitExceeded, SolverTimeout
from repro.ir.examples import matmul
from repro.memo import Memo
from repro.obs import MetricsRegistry, Obs, get_obs, use_obs
from repro.schedule.farkas import (FARKAS_MEMO, SymbolicAffineForm,
                                   add_farkas_nonneg)
from repro.schedule.scheduler import InfluencedScheduler, SchedulerOptions
from repro.sets.polyhedron import EMPTINESS_MEMO, Polyhedron
from repro.solver.budget import SolveBudget, use_budget
from repro.solver.problem import ILP_MEMO, Problem, var
from repro.workloads import operators


def _counted(memo_name: str, body) -> dict:
    """Run ``body`` under a fresh registry; return its ``memo_name`` counters."""
    obs = Obs(metrics=MetricsRegistry())
    with use_obs(obs):
        body()
    prefix = memo_name + "."
    return {name[len(prefix):]: value
            for name, value in obs.metrics.counters.items()
            if name.startswith(prefix)}


class TestMemo:
    def test_get_returns_none_on_miss(self):
        memo = Memo("t", 4)
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert memo.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                "evictions": 0}

    def test_falsy_values_are_hits(self):
        memo = Memo("t", 4)
        memo.put("empty", False)
        memo.put("zero", 0)
        assert memo.get("empty") is False
        assert memo.get("zero") == 0
        assert memo.hits == 2 and memo.misses == 0

    def test_eviction_at_the_bound_drops_least_recently_used(self):
        memo = Memo("t", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1      # "b" is now the least recently used
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3

    def test_put_refreshes_an_existing_key(self):
        memo = Memo("t", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)              # refresh: "b" becomes the oldest
        memo.put("c", 3)
        assert memo.get("a") == 10
        assert memo.get("b") is None

    def test_counters_reach_the_ambient_metrics(self):
        memo = Memo("t.memo", 1)

        def body():
            memo.get("a")
            memo.put("a", 1)
            memo.get("a")
            memo.put("b", 2)

        assert _counted("t.memo", body) == {"misses": 1, "hits": 1,
                                            "evictions": 1}

    def test_no_counting_outside_a_metrics_scope(self):
        memo = Memo("t", 2)
        memo.get("a")
        assert get_obs().metrics.counters == {}
        assert memo.misses == 1        # the memo still keeps its totals

    def test_clear_resets_entries_and_totals(self):
        memo = Memo("t", 2)
        memo.put("a", 1)
        memo.get("a")
        memo.clear()
        assert memo.stats() == {"entries": 0, "hits": 0, "misses": 0,
                                "evictions": 0}


class TestProcessMemos:
    def test_dependence_memo_reports(self):
        kernel = matmul(8)
        compute_dependences(kernel)    # warm: the next call must hit
        counts = _counted("cache.deps", lambda: compute_dependences(kernel))
        assert counts == {"hits": 1}
        assert DEPENDENCES_MEMO.name == "cache.deps"

    def test_emptiness_memo_reports(self):
        poly = Polyhedron(["x"], [var("x") >= 3, var("x") <= 1])

        def body():
            Polyhedron(["x"], [var("x") >= 3, var("x") <= 1]).is_empty()

        poly.is_empty()
        assert _counted("cache.emptiness", body) == {"hits": 1}
        assert EMPTINESS_MEMO.name == "cache.emptiness"
        assert EMPTINESS_MEMO.max_entries == 50_000

    def test_farkas_memo_reports(self):
        def body():
            # Equal polyhedron and form, rebuilt: only content can hit.
            poly = Polyhedron(["x"], [var("x") >= 0, var("x") <= 4])
            form = SymbolicAffineForm({"x": var("a")}, var("c"))
            problem = Problem()
            for name in ("a", "c"):
                problem.add_variable(name, lower=-2, upper=2)
            add_farkas_nonneg(problem, "f", poly, form, set())

        body()
        assert _counted("cache.farkas", body) == {"hits": 1}
        assert FARKAS_MEMO.name == "cache.farkas"


class TestIlpMemo:
    """``cache.ilp``: a hit returns the cold solve's point and replays its
    work, so ``solver.*`` counters and budgets cannot tell the two apart."""

    @staticmethod
    def _solve(budget=None, max_nodes=100_000):
        # Rebuilt every call: only the lowered program's content can hit.
        # The relaxation's optimum x + y = 1.5 is fractional, so branch and
        # bound runs several nodes.
        problem = Problem()
        x = problem.add_variable("x", lower=0, upper=10)
        y = problem.add_variable("y", lower=0, upper=10)
        problem.add_constraint(x * 2 + y * 2 >= 3)
        problem.add_constraint(x - y <= 1)
        obs = Obs(metrics=MetricsRegistry())
        active = (budget or SolveBudget()).start()
        with use_obs(obs), use_budget(active):
            point = problem.solve(objective=x + y * 2, max_nodes=max_nodes)
        return point, obs.metrics.counters, (active.pivots, active.nodes)

    @staticmethod
    def _work(counters):
        return {name: value for name, value in counters.items()
                if name.startswith("solver.")}

    def setup_method(self):
        ILP_MEMO.clear()

    def teardown_method(self):
        ILP_MEMO.clear()

    def test_hit_replays_the_cold_solve(self):
        cold_point, cold, cold_charges = self._solve()
        warm_point, warm, warm_charges = self._solve()
        assert (cold["cache.ilp.misses"], warm["cache.ilp.hits"]) == (1, 1)
        assert warm_point == cold_point
        assert cold["solver.bb_nodes"] > 1
        assert self._work(warm) == self._work(cold)
        assert list(self._work(warm)) == list(self._work(cold))
        assert warm_charges == cold_charges
        assert ILP_MEMO.name == "cache.ilp"

    def test_replay_exhausts_a_budget_where_the_solve_does(self):
        _, _, (pivots, nodes) = self._solve()
        for budget, match in ((SolveBudget(max_pivots=pivots - 1), "pivot"),
                              (SolveBudget(max_ilp_nodes=nodes - 1), "node")):
            for _ in range(2):  # cold, then replayed from the memo
                with pytest.raises(SolverTimeout, match=match):
                    self._solve(budget)
        assert len(ILP_MEMO) == 1

    def test_failed_solves_are_not_stored(self):
        with pytest.raises(BranchLimitExceeded):
            self._solve(max_nodes=1)
        with pytest.raises(SolverTimeout):
            self._solve(SolveBudget(max_pivots=0))
        assert len(ILP_MEMO) == 0
        _, counters, _ = self._solve()
        assert counters["cache.ilp.misses"] == 1

    def test_scheduler_budget_runs_out_on_replayed_solves(self):
        kernel = operators.reduce_producer_op("ilp_memo_budget", rows=64,
                                              red=8)
        InfluencedScheduler(kernel).schedule()  # every dimension ILP stored
        scheduler = InfluencedScheduler(
            kernel, options=SchedulerOptions(budget=SolveBudget(max_pivots=1)))
        with pytest.raises(SolverTimeout):
            scheduler.schedule()
