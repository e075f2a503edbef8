"""Resilience: solve budgets, the exception taxonomy, fault injection,
the pipeline degradation ladder, per-operator failure isolation, and a
dead worker failing the run."""

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.errors as errors
from repro.errors import (
    BranchLimitExceeded,
    CodegenError,
    ReproError,
    SchedulingError,
    SolverTimeout,
)
from repro.cli import main
from repro.eval import runner
from repro.eval.runner import (
    EvaluationConfig,
    evaluate_network,
    evaluate_operator,
)
from repro.faultinject import (
    FaultPlan,
    FaultPlanError,
    FaultRule,
    NULL_PLAN,
    fault_action,
    get_faults,
    parse_plan,
    use_faults,
)
from repro.obs.runtime import Obs, use_obs
from repro.pipeline import AkgPipeline
from repro.schedule import InfluencedScheduler, SchedulerOptions
from repro.sets.polyhedron import Polyhedron
from repro.solver.budget import SolveBudget, get_budget, use_budget
from repro.solver.problem import var
from repro.workloads import operators

INFL_ONLY = "compile=timeout@variant=infl&influence=True"


class TestTaxonomy:
    def test_all_subclass_repro_error(self):
        for exc in (SchedulingError, SolverTimeout, BranchLimitExceeded,
                    CodegenError):
            assert issubclass(exc, ReproError)
        assert issubclass(ReproError, Exception)

    def test_historical_locations_reexport(self):
        from repro.codegen.generate import CodegenError as codegen_exc
        from repro.schedule.scheduler import SchedulingError as sched_exc
        from repro.solver.ilp import BranchLimitExceeded as ilp_exc
        assert codegen_exc is errors.CodegenError
        assert sched_exc is errors.SchedulingError
        assert ilp_exc is errors.BranchLimitExceeded


class TestSolveBudget:
    def test_pivot_budget_raises(self):
        active = SolveBudget(max_pivots=3).start()
        for _ in range(3):
            active.charge_pivot()
        with pytest.raises(SolverTimeout, match="pivot budget"):
            active.charge_pivot()

    def test_node_budget_raises(self):
        active = SolveBudget(max_ilp_nodes=2).start()
        active.charge_node()
        active.charge_node()
        with pytest.raises(SolverTimeout, match="node budget"):
            active.charge_node()

    def test_deadline_raises(self):
        active = SolveBudget(deadline_s=0.001).start()
        time.sleep(0.01)
        with pytest.raises(SolverTimeout, match="deadline"):
            active.check_deadline()

    def test_unlimited_budget_never_raises(self):
        active = SolveBudget().start()
        for _ in range(500):
            active.charge_pivot()
            active.charge_node()

    def test_ambient_scope(self):
        assert get_budget() is None
        active = SolveBudget(max_pivots=1).start()
        with use_budget(active):
            assert get_budget() is active
        assert get_budget() is None

    def test_scheduler_raises_on_exhausted_budget(self):
        kernel = operators.reduce_producer_op("budgeted", rows=64, red=8)
        scheduler = InfluencedScheduler(
            kernel, options=SchedulerOptions(budget=SolveBudget(max_pivots=1)))
        with pytest.raises(SolverTimeout):
            scheduler.schedule()

    def test_scheduler_succeeds_within_budget(self):
        kernel = operators.reduce_producer_op("roomy", rows=64, red=8)
        scheduler = InfluencedScheduler(
            kernel,
            options=SchedulerOptions(budget=SolveBudget(deadline_s=60.0)))
        schedule = scheduler.schedule()
        assert schedule.is_complete()


class TestFaultPlanParsing:
    def test_single_rule(self):
        plan = parse_plan("compile=timeout")
        assert plan.rules == (FaultRule(site="compile", action="timeout"),)
        assert plan.seed == 0
        assert bool(plan)

    def test_full_grammar(self):
        plan = parse_plan("seed=42;compile=timeout@variant=infl"
                          "&influence=True:p=0.5;store.append=enospc")
        assert plan.seed == 42
        assert plan.rules[0] == FaultRule(
            site="compile", action="timeout",
            match=(("variant", "infl"), ("influence", "True")),
            probability=0.5)
        assert plan.rules[1] == FaultRule(site="store.append",
                                          action="enospc")

    @pytest.mark.parametrize("spec", ["nonsense", "=action", "site=",
                                      "compile=timeout@variant"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultPlanError):
            parse_plan(spec)

    def test_null_plan_is_falsy(self):
        assert not NULL_PLAN
        assert NULL_PLAN.action_at("compile", variant="infl") is None


class TestFaultDecisions:
    def test_match_clauses_are_exact(self):
        plan = parse_plan("compile=timeout@variant=infl")
        assert plan.action_at("compile", variant="infl") == "timeout"
        assert plan.action_at("compile", variant="isl") is None
        assert plan.action_at("scheduler.dimension", variant="infl") is None

    def test_first_matching_rule_wins(self):
        plan = parse_plan("compile=timeout@variant=infl;"
                          "compile=codegen-error")
        assert plan.action_at("compile", variant="infl") == "timeout"
        assert plan.action_at("compile", variant="tvm") == "codegen-error"

    def test_probabilistic_rules_are_content_keyed(self):
        plan = parse_plan("seed=3;compile=timeout:p=0.5")
        verdicts = {name: plan.action_at("compile", kernel=name)
                    for name in (f"op{i}" for i in range(40))}
        # Deterministic: the same attrs always produce the same verdict.
        for name, verdict in verdicts.items():
            assert plan.action_at("compile", kernel=name) == verdict
        fired = sum(1 for v in verdicts.values() if v == "timeout")
        assert 0 < fired < len(verdicts)  # p=0.5 fires on some, not all

    def test_seed_changes_decisions(self):
        draw = lambda seed: tuple(
            parse_plan(f"seed={seed};compile=timeout:p=0.5").action_at(
                "compile", kernel=f"op{i}")
            for i in range(40))
        assert draw(1) != draw(2)

    def test_use_faults_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "compile=timeout")
        assert get_faults().action_at("compile") == "timeout"
        with use_faults(NULL_PLAN):
            assert not get_faults()
        assert get_faults().action_at("compile") == "timeout"

    def test_bad_env_plan_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "nonsense")
        assert get_faults() is NULL_PLAN

    def test_fault_action_counts_and_traces(self):
        obs = Obs()
        with use_faults(parse_plan("compile=timeout")), use_obs(obs):
            assert fault_action("compile", variant="infl") == "timeout"
            assert fault_action("worker") is None
        assert obs.metrics.counters.get("faults.compile.timeout") == 1


class TestDegradationLadder:
    def test_infl_falls_back_to_no_influence(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.elementwise_chain_op("ladder1", rows=64, cols=8)
        with use_faults(parse_plan(INFL_ONLY)):
            compiled = pipe.compile(kernel, "infl")
        assert compiled.degradation == "no-influence"
        assert pipe.context.counters["resilience.fallback"] == 1
        assert pipe.context.counters["resilience.degraded"] == 1

    def test_infl_falls_back_to_isl_baseline(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.elementwise_chain_op("ladder2", rows=64, cols=8)
        with use_faults(parse_plan("compile=timeout@variant=infl")):
            compiled = pipe.compile(kernel, "infl")
        assert compiled.degradation == "isl-baseline"
        assert pipe.context.counters["resilience.fallback"] == 2
        # The bottom rung IS the isl baseline compile: identical output.
        assert compiled.signature() == pipe.compile(kernel,
                                                    "isl").signature()

    def test_every_rung_failing_raises_last_error(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.elementwise_chain_op("ladder3", rows=64, cols=8)
        with use_faults(parse_plan("compile=codegen-error")):
            with pytest.raises(CodegenError):
                pipe.compile(kernel, "infl")
        assert pipe.context.counters["resilience.fallback"] == 3

    def test_no_faults_means_no_degradation(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.elementwise_chain_op("ladder4", rows=64, cols=8)
        compiled = pipe.compile(kernel, "infl")
        assert compiled.degradation == "none"
        assert "resilience.fallback" not in pipe.context.counters


class TestOperatorIsolation:
    def test_degraded_operator_keeps_all_times(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.elementwise_chain_op("iso1", rows=64, cols=8)
        with use_faults(parse_plan(INFL_ONLY)):
            result = evaluate_operator(pipe, kernel.name, "elementwise",
                                       kernel)
        assert result.status == "degraded"
        assert result.degradation == {"infl": "no-influence"}
        assert set(result.times) == {"isl", "tvm", "novec", "infl"}

    def test_failed_operator_reports_errors(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.elementwise_chain_op("iso2", rows=64, cols=8)
        with use_faults(parse_plan("compile=timeout")):
            result = evaluate_operator(pipe, kernel.name, "elementwise",
                                       kernel)
        assert result.status == "failed"
        assert result.times == {}
        assert "SolverTimeout" in result.error

    def test_speedup_is_nan_for_missing_variants(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.elementwise_chain_op("iso3", rows=64, cols=8)
        with use_faults(parse_plan("compile=timeout")):
            result = evaluate_operator(pipe, kernel.name, "elementwise",
                                       kernel)
        assert result.speedup("infl") != result.speedup("infl")  # NaN


class TestSerialParallelParity:
    """The acceptance scenario: a fault-forced solver timeout on the infl
    variant degrades the operator identically under serial and --jobs 2
    evaluation, with exactly one resilience.fallback activation."""

    CONFIG = EvaluationConfig(limit_per_network=1, sample_blocks=2)

    def test_degradation_records_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", INFL_ONLY)
        serial = evaluate_network("LSTM", self.CONFIG)
        parallel = evaluate_network("LSTM", self.CONFIG, jobs=2)
        for result in (serial, parallel):
            assert result.count_degraded == 1
            assert result.count_failed == 0
            op = result.operators[0]
            assert op.status == "degraded"
            assert op.degradation == {"infl": "no-influence"}
            counters = result.metrics["counters"]
            assert counters["resilience.fallback"] == 1
        assert [op.degradation for op in serial.operators] == \
               [op.degradation for op in parallel.operators]
        assert [op.times for op in serial.operators] == \
               [op.times for op in parallel.operators]


# Bound before any test patches the module attribute.
_evaluate_index = runner._evaluate_index


def _die_on_index_1(network, config, index):
    """``runner._evaluate_index`` whose worker dies on operator 1 (module
    level, so the pool can pickle it by name)."""
    if index == 1:
        os._exit(137)
    return _evaluate_index(network, config, index)


class TestWorkerDeath:
    """A dead worker breaks the pool: the run fails within seconds and no
    worker is left behind. The CLI's ``error`` run record for the same
    death is checked in ``tests/test_obs_store.py``."""

    CONFIG = EvaluationConfig(limit_per_network=4, sample_blocks=2)

    def test_worker_death_fails_run(self, monkeypatch):
        monkeypatch.setattr(runner, "_evaluate_index", _die_on_index_1)
        started = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            evaluate_network("LSTM", self.CONFIG, jobs=2)
        assert time.monotonic() - started < 30
        assert multiprocessing.active_children() == []


class TestPolyhedronBranchLimit:
    def test_branch_limit_counted_not_swallowed(self):
        # Rational-feasible (x = 7919/2) but integer-infeasible; a zero
        # node cap forces the branch-and-bound give-up path.
        poly = Polyhedron(["x"], [(var("x") * 2).eq(7919),
                                  var("x") >= 0, var("x") <= 10000])
        obs = Obs()
        with use_obs(obs):
            assert poly.is_empty(max_nodes=0) is False  # safe over-approx
        assert obs.metrics.counters["sets.emptiness_branch_limit"] == 1


class TestEvaluationConfigDefaults:
    def test_weights_not_shared_between_instances(self):
        first, second = EvaluationConfig(), EvaluationConfig()
        assert first.weights is not second.weights


class TestCliExitCodes:
    ARGS = ["--quiet", "table2", "--networks", "LSTM", "--limit", "1"]

    def test_degraded_without_flag_fails(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_FAULT_PLAN", INFL_ONLY)
        assert main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert "degradation summary" in out

    def test_degraded_with_allow_flag_passes(self, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_FAULT_PLAN", INFL_ONLY)
        assert main(self.ARGS + ["--allow-degraded"]) == 0
        assert "degraded" in capsys.readouterr().out
