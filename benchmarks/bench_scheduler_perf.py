"""Scheduler performance: cost of influenced vs plain scheduling.

Not a paper table, but the implicit compile-time story: constraint
injection must not blow up scheduling time.  Benchmarks the per-kernel
scheduling cost for increasing statement counts and nest depths.
"""

import pytest
from conftest import write_artifact

from repro.deps.analysis import compute_dependences
from repro.influence import build_influence_tree
from repro.ir.examples import elementwise_chain, matmul, running_example
from repro.obs import MetricsRegistry, Obs, Tracer, use_obs
from repro.schedule import InfluencedScheduler
from repro.workloads import operators


CASES = {
    "matmul_3d": lambda: matmul(32),
    "running_example": lambda: running_example(32),
    "chain_len2": lambda: elementwise_chain(32, 2),
    "chain_len4": lambda: elementwise_chain(32, 4),
    "layout_conversion_4d": lambda: operators.layout_conversion_op(
        "perf_conv", 2, 16, 8, 8),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bench_plain_scheduling(benchmark, case):
    kernel = CASES[case]()
    relations = compute_dependences(kernel)

    def run():
        return InfluencedScheduler(kernel, relations=relations).schedule()

    schedule = benchmark.pedantic(run, rounds=2, iterations=1)
    assert schedule.is_complete()


@pytest.mark.parametrize("case", list(CASES))
def test_bench_influenced_scheduling(benchmark, case):
    kernel = CASES[case]()
    relations = compute_dependences(kernel)
    tree = build_influence_tree(kernel)

    def run():
        return InfluencedScheduler(kernel, relations=relations).schedule(tree)

    schedule = benchmark.pedantic(run, rounds=2, iterations=1)
    assert schedule.is_complete()


def test_bench_influenced_scheduling_instrumented(benchmark):
    """Influenced scheduling with full observability (spans + metrics)
    installed as the ambient handle.  The plain `test_bench_influenced_*`
    cases above run against the disabled default handle, so comparing the
    two in BENCH_* runs bounds the instrumentation overhead (the budget:
    disabled tracing must stay within noise, enabled well under 2x)."""
    kernel = CASES["running_example"]()
    relations = compute_dependences(kernel)
    tree = build_influence_tree(kernel)
    obs = Obs(Tracer(enabled=True), MetricsRegistry())

    def run():
        with use_obs(obs):
            return InfluencedScheduler(kernel,
                                       relations=relations).schedule(tree)

    schedule = benchmark.pedantic(run, rounds=2, iterations=1)
    assert schedule.is_complete()
    assert obs.metrics.counters["solver.lp_solves"] > 0
    assert any(s.name == "scheduler.schedule" for s in obs.tracer.roots)


def test_bench_influenced_scheduling_journaled(benchmark):
    """Influenced scheduling with the provenance journal enabled (the
    `repro explain` recording path).  The matching plain case is
    `test_bench_influenced_scheduling[running_example]`; the acceptance
    budget for journal recording is <= 5% over the disabled-journal run,
    since a disabled journal costs one global read + an `enabled` check
    per instrumented site."""
    from repro.obs.provenance import use_journal

    kernel = CASES["running_example"]()
    relations = compute_dependences(kernel)
    tree = build_influence_tree(kernel)
    journals = []

    def run():
        with use_journal() as journal:
            schedule = InfluencedScheduler(
                kernel, relations=relations).schedule(tree)
        journals.append(journal)
        return schedule

    schedule = benchmark.pedantic(run, rounds=2, iterations=1)
    assert schedule.is_complete()
    assert any(e["kind"] == "dimension" for e in journals[-1].events)


def test_bench_dependence_analysis(benchmark):
    kernel = elementwise_chain(32, 4)
    relations = benchmark.pedantic(lambda: compute_dependences(kernel),
                                   rounds=2, iterations=1)
    assert relations


def _compile_cases(pipeline):
    # Fresh kernel objects on every call: only content equality can hit
    # the schedule cache.
    return [pipeline.compile(CASES[case](), "infl") for case in CASES]


def test_bench_pipeline_cold(benchmark):
    """Full-pipeline compile cost from cold: each round gets a fresh
    pipeline, so every schedule is solved, and starts with the five
    process-wide memos (dependences, emptiness answers, Farkas blocks,
    solved ILPs and simulated profiles) emptied, as in a new process:
    every dependence is analysed, every emptiness question and dimension
    ILP solved and every Farkas block projected again.  This is the
    series where solver changes show."""
    from repro.deps.analysis import DEPENDENCES_MEMO
    from repro.gpu.profile_cache import PROFILE_MEMO
    from repro.pipeline import AkgPipeline
    from repro.schedule.farkas import FARKAS_MEMO
    from repro.sets.polyhedron import EMPTINESS_MEMO
    from repro.solver.problem import ILP_MEMO

    def fresh_pipeline():
        for memo in (DEPENDENCES_MEMO, EMPTINESS_MEMO, FARKAS_MEMO,
                     ILP_MEMO, PROFILE_MEMO):
            memo.clear()
        return (AkgPipeline(sample_blocks=2),), {}

    compiled = benchmark.pedantic(_compile_cases, setup=fresh_pipeline,
                                  rounds=10, warmup_rounds=1, iterations=1)
    assert all(c.n_launches >= 1 for c in compiled)


def test_bench_pipeline_warm(benchmark):
    """Full-pipeline compile cost served from the content-keyed schedule
    cache: one untimed compile fills it, then every round rebuilds *equal*
    (but distinct) kernels and must hit.  The artifact captures the
    per-pass time breakdown and the cache hit-rate so the perf trajectory
    of the pass manager shows up in BENCH_* runs."""
    from repro.pipeline import AkgPipeline

    pipeline = AkgPipeline(sample_blocks=2)
    _compile_cases(pipeline)
    misses = pipeline.cache.stats()["misses"]
    compiled = benchmark.pedantic(_compile_cases, args=(pipeline,),
                                  rounds=20, warmup_rounds=1, iterations=1)
    assert all(c.n_launches >= 1 for c in compiled)
    stats = pipeline.cache.stats()
    assert stats["misses"] == misses, "warm rounds must hit the content cache"
    # The summary includes the schedule-cache hit-rate line, so reuse
    # behaviour lands in the artifact alongside the pass table.
    summary = pipeline.context.format_summary()
    assert "schedule cache:" in summary
    write_artifact(
        "scheduler_perf_passes.txt",
        summary + f"\n  cache entries: {stats['entries']}, "
                  f"evictions: {stats['evictions']}")


@pytest.mark.parametrize("sim", ["fast", "reference"])
def test_bench_compile_and_measure(benchmark, sim, monkeypatch):
    """Full compile+measure cost on each simulator interpreter.

    The two series bound the simulator's share of end-to-end pipeline
    wall time in the BENCH_* trend; the artifact breaks each round into
    compile vs simulate seconds so a simulator regression is attributable
    at a glance.  With the fast path the pass summary must also show
    its fast-path counters (memoization working on real pipeline output,
    not just on the micro-bench kernels).

    Every round starts from an empty profile memo, so both series time
    their interpreter rather than replays of launches simulated before."""
    import time

    import repro.gpu.simulator as simulator
    from repro.memo import Memo
    from repro.pipeline import AkgPipeline

    if sim == "reference":
        # The `reference_simulator` control arm of tests/control_arms.py:
        # a memo of its own, and every launch on the reference interpreter.
        memo = simulator.PROFILE_MEMO
        monkeypatch.setattr(simulator, "PROFILE_MEMO",
                            Memo(memo.name, memo.max_entries))
        monkeypatch.setattr(
            simulator, "_simulate",
            lambda *args: (simulator.simulate_reference(*args), ()))
    pipeline = AkgPipeline(sample_blocks=4)
    breakdown = []  # (compile_s, measure_s) per round

    def run():
        simulator.PROFILE_MEMO.clear()
        compile_s = measure_s = 0.0
        timings = []
        for case in CASES:
            kernel = CASES[case]()
            started = time.perf_counter()
            compiled = pipeline.compile(kernel, "infl")
            mid = time.perf_counter()
            timings.append(pipeline.measure(compiled))
            compile_s += mid - started
            measure_s += time.perf_counter() - mid
        breakdown.append((compile_s, measure_s))
        return timings

    timings = benchmark.pedantic(run, rounds=2, iterations=1)
    assert all(t.time > 0 for t in timings)
    summary = pipeline.context.format_summary()
    if sim == "fast":
        assert "simulator fast path" in summary
    lines = [f"compile vs simulate wall time, sim={sim} "
             f"({len(CASES)} kernels per round):",
             f"  {'round':<7}{'compile ms':>12}{'simulate ms':>13}"]
    for index, (compile_s, measure_s) in enumerate(breakdown):
        lines.append(f"  {index:<7}{compile_s * 1e3:>12.1f}"
                     f"{measure_s * 1e3:>13.1f}")
    write_artifact(f"scheduler_perf_measure_{sim}.txt",
                   "\n".join(lines) + "\n" + summary)
