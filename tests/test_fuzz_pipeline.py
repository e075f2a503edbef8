"""Pipeline fuzzing: random kernels -> schedule -> codegen -> semantics.

For every generated kernel we check, exhaustively at small sizes:

* the plain and the influenced schedules strongly satisfy every dependence
  (``verify_schedule``),
* the compiled (vectorized, GPU-mapped) AST executes exactly the iteration
  domains in a conflict-preserving order (``check_semantics``),
* the simulator can execute the mapped kernel.

This is the strongest whole-system invariant in the repository.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen import generate_ast, map_to_gpu, vectorize
from repro.codegen.interp import check_semantics
from repro.gpu import simulate_kernel
from repro.influence import build_influence_tree
from repro.ir import Kernel
from repro.schedule import InfluencedScheduler
from repro.schedule.analysis import verify_schedule

ITER_POOL = ["i", "j", "k"]
N = 4  # domain extent: small enough for exhaustive checking
WINDOW = 2  # extent of the windowed-access iterator ``r``

# Long hypothesis runs: deselected from tier-1, exercised by deep-verify.
pytestmark = pytest.mark.fuzz


@st.composite
def kernels(draw) -> Kernel:
    n_statements = draw(st.integers(1, 3))
    kernel = Kernel("fuzz", params={"N": N})
    # A pool of input tensors by rank, plus window-padded inputs for the
    # windowed-access production (``i + r`` stays in bounds).
    for rank in (1, 2, 3):
        kernel.add_tensor(f"In{rank}", (N,) * rank)
    pad = N + WINDOW - 1
    kernel.add_tensor("WIn1", (pad,))
    kernel.add_tensor("WIn2", (pad, pad))
    written: list[tuple[str, int]] = [(f"In{r}", r) for r in (1, 2, 3)]

    for index in range(n_statements):
        depth = draw(st.integers(1, 3))
        iters = ITER_POOL[:depth]
        triangular = depth >= 2 and draw(st.booleans())
        windowed = not triangular and draw(
            st.sampled_from([False, False, False, True]))
        reduction = (not triangular and not windowed and depth >= 2
                     and draw(st.sampled_from([False, False, False, True])))
        bounds = []
        for level, it in enumerate(iters):
            if triangular and level == 1:
                bounds.append((it, 0, "i + 1"))
            else:
                bounds.append((it, 0, "N"))
        if windowed:
            bounds.append(("r", 0, str(WINDOW)))

        def subscripts(rank: int) -> list[str]:
            # Affine subscripts over the available iterators: permutations,
            # possible reuse, offsets, and constants.
            subs = []
            for _ in range(rank):
                choice = draw(st.sampled_from(iters + ["const"]))
                if choice == "const":
                    subs.append(str(draw(st.integers(0, N - 1))))
                elif draw(st.booleans()) and not triangular:
                    subs.append(f"{choice} + 0")
                else:
                    subs.append(choice)
            return subs

        if reduction:
            out_rank = depth - 1  # innermost iterator reduces away
        else:
            out_rank = draw(st.integers(1, min(3, depth)))
        out_name = f"T{index}"
        kernel.add_tensor(out_name, (N,) * out_rank)
        # The write must cover distinct cells reasonably; use the first
        # out_rank iterators directly (scatter writes with repeated
        # iterators would make the op non-deterministic anyway).
        write_subs = list(iters[:out_rank])
        reads = []
        if windowed:
            # A shifted read through the window iterator; the write omits
            # ``r``, so the statement accumulates over the window.
            wrank = draw(st.sampled_from([1, 2]))
            subs = ([f"{iters[0]} + r"]
                    + [draw(st.sampled_from(iters))
                       for _ in range(wrank - 1)])
            reads.append((f"WIn{wrank}", subs))
            reads.append((out_name, list(write_subs)))
        n_reads = draw(st.integers(0, 2))
        for _ in range(n_reads):
            tensor, rank = draw(st.sampled_from(written))
            reads.append((tensor, subscripts(rank)))
        if reduction:
            reads.append((out_name, list(write_subs)))  # carried accumulator
            prior = [t for t, rank in written
                     if rank == 1 and t.startswith("T")]
            if prior:
                # reduce -> broadcast -> reduce: an earlier reduction's
                # row vector re-enters at lower depth.
                reads.append((prior[-1], [iters[0]]))
        elif not windowed and draw(st.booleans()):
            reads.append((out_name, list(write_subs)))  # accumulator style
        kernel.add_statement(f"S{index}", bounds,
                             writes=[(out_name, write_subs)], reads=reads)
        written.append((out_name, out_rank))
    kernel.validate()
    return kernel


@given(kernels())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
def test_fuzz_plain_pipeline(kernel):
    scheduler = InfluencedScheduler(kernel)
    schedule = scheduler.schedule()
    assert verify_schedule(schedule, scheduler.relations) == []
    ast = generate_ast(kernel, schedule)
    ast = vectorize(ast, kernel, schedule, scheduler.relations, enable=False)
    mapped = map_to_gpu(kernel, ast, schedule, max_threads=4)
    assert check_semantics(kernel, mapped.ast) == []


@given(kernels())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
def test_fuzz_influenced_pipeline(kernel):
    scheduler = InfluencedScheduler(kernel)
    tree = build_influence_tree(kernel)
    schedule = scheduler.schedule(tree)
    assert verify_schedule(schedule, scheduler.relations) == []
    ast = generate_ast(kernel, schedule)
    ast = vectorize(ast, kernel, schedule, scheduler.relations, enable=True)
    mapped = map_to_gpu(kernel, ast, schedule, max_threads=4)
    assert check_semantics(kernel, mapped.ast) == []
    profile = simulate_kernel(mapped, sample_blocks=2)
    assert profile.time > 0
