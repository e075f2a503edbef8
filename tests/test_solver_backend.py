"""Warm-start reuse and solve deduplication.

The contract under test: whatever reuse the incremental machinery applies
(incumbent bounds from warm-start handles, content-keyed solve replay),
results must be bitwise-identical to cold solves, and the ``cold_solver``
fixture (see ``control_arms.py``) must disable all of it.
"""

from fractions import Fraction

import pytest

from repro.ir.examples import matmul, running_example
from repro.obs import MetricsRegistry, Obs, use_obs
from repro.pipeline.akg import AkgPipeline
from repro.eval.runner import evaluate_operator
from repro.schedule.scheduler import InfluencedScheduler
from repro.solver.dedup import SolveCache, get_solve_cache, use_solve_cache
from repro.solver.ilp import solve_ilp
from repro.solver.lp import LPStatus
from repro.solver.problem import Problem, var
from repro.solver.warmstart import (
    WarmStartHandle,
    WarmStartPool,
    get_warm_pool,
    incumbent_bound,
    use_warm_pool,
)


# -- incumbent bound correctness ----------------------------------------------


def _small_ilp() -> Problem:
    """min x + 2y  s.t.  x + y >= 3, 0 <= x,y <= 4  (optimum x=3, y=0)."""
    p = Problem()
    x = p.add_variable("x", lower=0, upper=4)
    y = p.add_variable("y", lower=0, upper=4)
    p.add_constraint(x + y >= 3)
    return p


def test_incumbent_bound_requires_feasible_candidate():
    p = _small_ilp()
    handle = WarmStartHandle()
    handle.offer({"x": Fraction(5), "y": Fraction(0)})  # violates x <= 4
    assert incumbent_bound(p, var("x") + 2 * var("y"), handle) is None
    handle.offer({"x": Fraction(1)})  # does not cover y
    assert incumbent_bound(p, var("x") + 2 * var("y"), handle) is None
    handle.offer({"x": Fraction(2), "y": Fraction(2)})
    assert incumbent_bound(p, var("x") + 2 * var("y"), handle) == 6


def test_warm_solve_with_suboptimal_candidate_matches_cold():
    objective = var("x") + 2 * var("y")
    cold = _small_ilp().solve(objective)
    handle = WarmStartHandle()
    handle.offer({"x": Fraction(2), "y": Fraction(2)})  # feasible, value 6
    warm = _small_ilp().solve(objective, warm=handle)
    assert warm == cold == {"x": Fraction(3), "y": Fraction(0)}


def test_warm_solve_offered_the_optimum_itself_matches_cold():
    # The strict (>) prune means a candidate equal to the optimum must not
    # displace the point the cold depth-first order finds first.
    objective = var("x") + 2 * var("y")
    cold = _small_ilp().solve(objective)
    handle = WarmStartHandle()
    handle.offer(cold)
    warm = _small_ilp().solve(objective, warm=handle)
    assert warm == cold


def test_incumbent_bound_prunes_nodes():
    # With a bound equal to the optimum, branch and bound may prune
    # strictly-worse subtrees — but the status and point are unchanged.
    p = _small_ilp()
    lp = p.lower_to_lp(var("x") + 2 * var("y"))
    cold = solve_ilp(lp, integer_mask=p.integer_mask())
    bounded = solve_ilp(lp, integer_mask=p.integer_mask(),
                        incumbent_bound=cold.objective)
    assert bounded.status is LPStatus.OPTIMAL
    assert bounded.x == cold.x
    assert bounded.objective == cold.objective


# -- solve deduplication ------------------------------------------------------


def test_dedup_replays_identical_problem():
    objective = var("x") + 2 * var("y")
    with use_solve_cache(SolveCache()) as cache:
        first = _small_ilp().solve(objective)
        second = _small_ilp().solve(objective)
    assert first == second
    assert cache.hits == 1
    assert cache.misses == 1


def test_dedup_key_is_positional_not_name_based():
    # The same system under renamed variables must hit the cache.
    def build(a: str, b: str) -> Problem:
        p = Problem()
        p.add_variable(a, lower=0, upper=4)
        p.add_variable(b, lower=0, upper=4)
        p.add_constraint(var(a) + var(b) >= 3)
        return p

    with use_solve_cache(SolveCache()) as cache:
        first = build("x", "y").solve(var("x") + 2 * var("y"))
        second = build("u", "v").solve(var("u") + 2 * var("v"))
    assert cache.hits == 1
    assert [first["x"], first["y"]] == [second["u"], second["v"]]


def test_dedup_caches_infeasible_answers():
    def build() -> Problem:
        p = Problem()
        x = p.add_variable("x", lower=0, upper=1)
        p.add_constraint(x >= 2)
        return p

    with use_solve_cache(SolveCache()) as cache:
        assert build().solve(var("x")) is None
        assert build().solve(var("x")) is None
    assert cache.hits == 1


def test_nowarm_backend_skips_cache_and_handles(cold_solver):
    """The ``cold_solver`` control arm really is cold: no replay, no
    warm-start bound."""
    objective = var("x") + 2 * var("y")
    handle = WarmStartHandle()
    handle.offer({"x": Fraction(3), "y": Fraction(0)})
    obs = Obs(metrics=MetricsRegistry())
    with use_obs(obs), use_solve_cache(SolveCache()) as cache:
        first = _small_ilp().solve(objective, warm=handle)
        second = _small_ilp().solve(objective, warm=handle)
    assert first == second == {"x": Fraction(3), "y": Fraction(0)}
    assert cache.hits == 0 and cache.misses == 0
    assert "solver.warmstart.hits" not in obs.metrics.counters


def test_ambient_scopes_nest_and_restore():
    assert get_solve_cache() is None
    assert get_warm_pool() is None
    with use_solve_cache(SolveCache()) as outer:
        with use_solve_cache(SolveCache()) as inner:
            assert get_solve_cache() is inner
        assert get_solve_cache() is outer
    with use_warm_pool(WarmStartPool()) as pool:
        assert get_warm_pool() is pool
        assert pool.peek(0) is None
        assert pool.handle(0) is pool.handle(0)
        assert pool.peek(0) is not None
    assert get_solve_cache() is None
    assert get_warm_pool() is None


# -- scheduler integration ----------------------------------------------------


def _schedule_signature(schedule) -> tuple:
    rows = {name: [(r.iter_coeffs, r.param_coeffs, r.const)
                   for r in built]
            for name, built in schedule.rows.items()}
    return (rows, [(info.band, info.coincident) for info in schedule.dims])


@pytest.mark.parametrize("maker", [matmul, running_example])
def test_schedule_identical_across_backends(maker, request):
    """The scheduler's schedule with reuse on equals the cold one."""
    plain = InfluencedScheduler(maker(16)).schedule()
    request.getfixturevalue("cold_solver")
    cold = InfluencedScheduler(maker(16)).schedule()
    assert _schedule_signature(plain) == _schedule_signature(cold)


def test_operator_evaluation_has_warmstart_hits():
    # The per-operator reuse scope shares incumbent candidates across the
    # four variants; a Table II style operator must register actual hits.
    kernel = running_example(16)
    pipeline = AkgPipeline(sample_blocks=2)
    result = evaluate_operator(pipeline, kernel.name, "test", kernel)
    assert result.status == "ok"
    counters = pipeline.context.counters
    assert counters.get("solver.warmstart.hits", 0) > 0


def test_operator_evaluation_identical_under_nowarm(request):
    def run() -> dict:
        kernel = running_example(16)
        pipeline = AkgPipeline(sample_blocks=2)
        result = evaluate_operator(pipeline, kernel.name, "test", kernel)
        assert result.status == "ok"
        return result.times

    warm_times = run()
    request.getfixturevalue("cold_solver")
    cold_times = run()
    assert warm_times == cold_times
