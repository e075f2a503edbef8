"""Simulator fast-path benchmarks: simulate_kernel vs simulate_reference.

The fast interpreter (:mod:`repro.gpu.fastpath`) must be a pure
performance change: bitwise-identical :class:`KernelProfile` counters at
a fraction of the reference interpreter's latency.  Each family benchmarks
both interpreters on the same mapped kernel so the BENCH_* trend tracks the
two latencies (and their ratio) over time, and the speedup test enforces
the acceptance floor — >= 5x on the transpose and reduction families,
where per-warp signature memoization pays off the most, a floor on each
fused union-loop family, where loop segment plans skip the iterations
whose guards are false, and one on row-per-lane softmax, where exact
repeats of the previous issue skip the cache replay.

Parity itself is asserted here too (cheap, and a benchmark that drifted
from the reference would otherwise publish meaningless timings); the
exhaustive parity matrix lives in tests/test_gpu_fastpath.py.
"""

import time

import pytest
from conftest import write_artifact

from repro.codegen import generate_ast, map_to_gpu, vectorize
from repro.gpu.simulator import simulate_kernel, simulate_reference
from repro.influence import build_influence_tree
from repro.schedule import InfluencedScheduler
from repro.workloads import operators

SAMPLE_BLOCKS = 8

# Series name -> simulation entry point; the names match BENCH_baseline.json.
SIMULATORS = {"fast": simulate_kernel, "reference": simulate_reference}

# family -> (kernel factory, influenced, acceptance floor for fast/ref).
# The transpose runs the *natural* (uninfluenced) mapping: its strided
# warp accesses are exactly the repeated-signature workload the fast
# path memoizes.  The elementwise family is dominated by short guard-free
# vector bodies, so its floor is lower.
FAMILIES = {
    "elementwise": (lambda: operators.elementwise_chain_op(
        "bench_sim_ew", rows=4096, cols=64), False, 1.5),
    "transpose": (lambda: operators.transpose2d_op(
        "bench_sim_tr", rows=2048, cols=2048), False, 5.0),
    "reduction": (lambda: operators.reduce_producer_op(
        "bench_sim_red", rows=8192, red=32), False, 5.0),
    # Uninfluenced softmax: each lane reads along its own row, so most
    # statement issues exactly repeat the previous one, the shape the
    # repeated-issue collapse skips.  Measured fast/reference on 2 cores:
    # 33x (7.3x replaying every issue); the floor is about half.
    "softmax_rows": (lambda: operators.softmax_like_op(
        "bench_sim_smr", rows=2048, cols=64), False, 15.0),
    # Fused, influenced and vectorized: union loops whose guarded
    # children are live on one band each, the shapes the loop segment
    # plans skip.  Measured fast/reference on 2 cores: softmax 54x,
    # attention 94x, transpose 3.5x (8.2x, 11.9x and 1.5x when every
    # iteration was walked).  Each floor sits at about half the measured
    # ratio, the margin absorbing a noisy shared host, and above the
    # per-iteration walk's ratio.
    "softmax_fused": (lambda: operators.softmax_like_op(
        "bench_sim_smf", rows=256, cols=64), True, 25.0),
    "attention_fused": (lambda: operators.attention_block_op(
        "bench_sim_attf", seq=32, dmodel=16), True, 40.0),
    "transpose_fused": (lambda: operators.transpose2d_op(
        "bench_sim_trf", rows=128, cols=128), True, 2.0),
}

_COMPILED: dict = {}


def _compiled(family):
    if family not in _COMPILED:
        factory, influenced, _ = FAMILIES[family]
        kernel = factory()
        scheduler = InfluencedScheduler(kernel)
        tree = build_influence_tree(kernel) if influenced else None
        schedule = scheduler.schedule(tree)
        ast = generate_ast(kernel, schedule)
        ast = vectorize(ast, kernel, schedule, scheduler.relations,
                        enable=True)
        _COMPILED[family] = map_to_gpu(kernel, ast, schedule,
                                       max_threads=256)
    return _COMPILED[family]


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.mark.parametrize("sim", ["fast", "reference"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_bench_simulate(benchmark, family, sim):
    """Per-interpreter simulation latency (one trend series each)."""
    mapped = _compiled(family)
    simulate = SIMULATORS[sim]
    profile = benchmark.pedantic(
        lambda: simulate(mapped, sample_blocks=SAMPLE_BLOCKS),
        rounds=3, iterations=1, warmup_rounds=1)
    reference = simulate_reference(mapped, sample_blocks=SAMPLE_BLOCKS)
    assert profile.counters() == reference.counters()


def test_simulator_speedup():
    """The acceptance floor: fast/reference latency ratio per family.

    Warm measurements (best of 3 after a warmup run) — the fast path's
    signature caches persist on the mapped kernel, which is exactly how
    the evaluation pipeline re-simulates operators."""
    lines = [f"simulate_kernel vs simulate_reference "
             f"(sample_blocks={SAMPLE_BLOCKS}, best of 3, warm):",
             f"  {'family':<14}{'reference ms':>14}{'fast ms':>10}"
             f"{'speedup':>9}{'floor':>7}"]
    failures = []
    for family, (_, _, floor) in FAMILIES.items():
        mapped = _compiled(family)
        run_fast = lambda: simulate_kernel(  # noqa: E731
            mapped, sample_blocks=SAMPLE_BLOCKS)
        run_ref = lambda: simulate_reference(  # noqa: E731
            mapped, sample_blocks=SAMPLE_BLOCKS)
        run_fast()  # warm the per-kernel signature caches
        fast_s, fast_profile = _best_of(run_fast)
        ref_s, ref_profile = _best_of(run_ref)
        assert fast_profile.counters() == ref_profile.counters()
        speedup = ref_s / fast_s if fast_s else float("inf")
        lines.append(f"  {family:<14}{ref_s * 1e3:>14.1f}"
                     f"{fast_s * 1e3:>10.1f}{speedup:>8.1f}x"
                     f"{floor:>6.1f}x")
        if speedup < floor:
            failures.append(f"{family}: {speedup:.1f}x < {floor:.1f}x")
    write_artifact("simulator_speedup.txt", "\n".join(lines))
    assert not failures, "; ".join(failures)
