"""Simulator fast-path benchmarks: simulate_kernel vs simulate_reference.

The fast interpreter (:mod:`repro.gpu.fastpath`) must be a pure
performance change: bitwise-identical :class:`KernelProfile` counters at
a fraction of the reference interpreter's latency.  Each family benchmarks
both interpreters on the same mapped kernel, so each run reports the two
latencies and their ratio, and the speedup test enforces
the acceptance floor — >= 5x on the transpose and reduction families,
where per-warp signature memoization pays off the most, a floor on each
fused union-loop family, where loop segment plans skip the iterations
whose guards are false and issue the live calls of a segment in one
pass, and one on row-per-lane softmax, where exact repeats of the
previous issue skip the cache replay.

The "fast" series times the uncached simulation: the process-wide
profile memo is emptied before every ``simulate_kernel`` run, so each run
interprets the launch instead of replaying a stored profile.

Parity itself is asserted here too (cheap, and a benchmark that drifted
from the reference would otherwise publish meaningless timings); the
exhaustive parity matrix lives in tests/test_gpu_fastpath.py.
"""

import time

import pytest
from conftest import write_artifact

from repro.codegen import generate_ast, map_to_gpu, vectorize
from repro.gpu.profile_cache import PROFILE_MEMO
from repro.gpu.simulator import simulate_kernel, simulate_reference
from repro.influence import build_influence_tree
from repro.schedule import InfluencedScheduler
from repro.workloads import operators

SAMPLE_BLOCKS = 8


def simulate_uncached(mapped, sample_blocks):
    """``simulate_kernel`` on an empty profile memo: the fast interpreter
    runs instead of a memo hit."""
    PROFILE_MEMO.clear()
    return simulate_kernel(mapped, sample_blocks=sample_blocks)


# Series name -> simulation entry point.
SIMULATORS = {"fast": simulate_uncached, "reference": simulate_reference}

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
    # attention 94x (8.2x and 11.9x when every iteration was walked).
    # Each floor sits at about half the measured ratio, the margin
    # absorbing a noisy shared host, and above the ratio of the walk the
    # plans replaced.
    "softmax_fused": (lambda: operators.softmax_like_op(
        "bench_sim_smf", rows=256, cols=64), True, 25.0),
    "attention_fused": (lambda: operators.attention_block_op(
        "bench_sim_attf", seq=32, dmodel=16), True, 40.0),
    # Single-thread fused launches.  The transpose's `forvec` holds
    # guards, so its lanes become guarded plan entries, issued together
    # per segment: measured 8.4x (3.8x issuing one call at a time, 1.5x
    # walking every iteration).  The depthwise convolution is the loop
    # nest of the ResNeXt50 `op028` launch at a 2x2 output: its statements
    # sit two and three loops below guards on the outer loops, which the
    # plans skip by lifted liveness: measured 20x (3.7x with plans that
    # only see guards directly under a loop).  The heat stencil issues up
    # to three live calls per segment in one pass: measured 3.9x (2.3x
    # one call at a time), the floor above the old ratio rather than at
    # half the new one.
    "transpose_fused": (lambda: operators.transpose2d_op(
        "bench_sim_trf", rows=128, cols=128), True, 4.0),
    "depthwise_fused": (lambda: operators.depthwise_conv_op(
        "bench_sim_dwf", channels=16, height=2, width=2, kernel_size=2),
        True, 10.0),
    "heat_fused": (lambda: operators.stencil2d_op(
        "bench_sim_heatf", size=64, kind="heat"), True, 2.5),
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


def _interleaved_best_of(fns, repeats=5):
    """Best wall time of each of ``fns`` and its last result, running
    them in turn ``repeats`` times: drift of a shared host then hits every
    side alike."""
    best = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            started = time.perf_counter()
            results[index] = fn()
            best[index] = min(best[index], time.perf_counter() - started)
    return best, results


@pytest.mark.parametrize("sim", ["fast", "reference"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_bench_simulate(benchmark, family, sim):
    """Per-interpreter simulation latency (one series each)."""
    mapped = _compiled(family)
    simulate = SIMULATORS[sim]
    profile = benchmark.pedantic(
        lambda: simulate(mapped, sample_blocks=SAMPLE_BLOCKS),
        rounds=3, iterations=1, warmup_rounds=1)
    reference = simulate_reference(mapped, sample_blocks=SAMPLE_BLOCKS)
    assert profile.counters() == reference.counters()


def test_simulator_speedup():
    """The acceptance floor: fast/reference latency ratio per family.

    Uncached, warm measurements (best of 5 per side after a warmup run,
    the fast and reference runs interleaved) — the fast path's signature
    caches persist on the mapped kernel, while the profile memo is
    emptied before every fast run."""
    lines = [f"simulate_kernel vs simulate_reference "
             f"(sample_blocks={SAMPLE_BLOCKS}, best of 5 interleaved, "
             f"warm):",
             f"  {'family':<16}{'reference ms':>14}{'fast ms':>10}"
             f"{'speedup':>9}{'floor':>7}"]
    failures = []
    for family, (_, _, floor) in FAMILIES.items():
        mapped = _compiled(family)
        run_fast = lambda: simulate_uncached(  # noqa: E731
            mapped, sample_blocks=SAMPLE_BLOCKS)
        run_ref = lambda: simulate_reference(  # noqa: E731
            mapped, sample_blocks=SAMPLE_BLOCKS)
        run_fast()  # warm the per-kernel signature caches
        (fast_s, ref_s), (fast_profile, ref_profile) = \
            _interleaved_best_of((run_fast, run_ref))
        assert fast_profile.counters() == ref_profile.counters()
        speedup = ref_s / fast_s if fast_s else float("inf")
        lines.append(f"  {family:<16}{ref_s * 1e3:>14.1f}"
                     f"{fast_s * 1e3:>10.1f}{speedup:>8.1f}x"
                     f"{floor:>6.1f}x")
        if speedup < floor:
            failures.append(f"{family}: {speedup:.1f}x < {floor:.1f}x")
    write_artifact("simulator_speedup.txt", "\n".join(lines))
    assert not failures, "; ".join(failures)
