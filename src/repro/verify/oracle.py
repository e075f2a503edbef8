"""Cross-variant differential oracle.

For one kernel, compile both the ``isl`` baseline and the ``infl``
(influenced + vectorized) variant through the real pipeline — degradation
ladder, fault injection and schedule cache included — and check that the
two results are semantically interchangeable:

* every launch's schedule strongly satisfies every dependence
  (:func:`~repro.schedule.analysis.verify_schedule`);
* each variant executes exactly its iteration domains in a
  conflict-preserving order (:func:`~repro.codegen.interp.check_semantics`);
* the two variants execute the *same* instance set (cross-variant
  equality, catching compensating bugs a per-variant check misses);
* simulator conservation: under exhaustive (non-sampled) simulation the
  total flop count is identical across variants, every variant moves at
  least the kernel's compulsory DRAM footprint, and when vectorization
  succeeded at full quality with transaction-aligned lane groups the
  influenced variant never issues *more* DRAM transactions than the
  baseline (the paper's entire claim);
* degradation-rung awareness: invariants are compared against the rung the
  resilient pipeline *actually took* — an ``isl-baseline`` fallback must
  be bit-identical to the real baseline, and the transaction bound is only
  asserted for full-quality vectorized results.

Exhaustive checks enumerate instances, so they are gated on domain size;
large (real Table II scale) kernels still get the analytic checks —
schedule verification, rung consistency and the footprint lower bound.
"""

from __future__ import annotations

from typing import Optional

from repro.codegen.ast import Loop, StatementCall, walk
from repro.codegen.interp import check_semantics, execute
from repro.deps.analysis import compute_dependences
from repro.errors import ReproError
from repro.gpu.simulator import simulate_kernel
from repro.obs.runtime import get_obs
from repro.pipeline.akg import AkgPipeline, CompiledOperator
from repro.schedule.analysis import verify_schedule
from repro.solver.problem import LinExpr, var

# Exhaustive instance checks are only run when every statement's domain has
# at most this many points (the interpreter enumerates them all).
EXHAUSTIVE_POINT_LIMIT = 4096

# Transactions are extrapolated floats; two exactly-equal computations can
# differ by rounding noise after scaling.
_REL_EPS = 1e-9


def domain_points(kernel) -> Optional[dict[str, list]]:
    """Per-statement iteration points, or None when too large."""
    points = {}
    for s in kernel.statements:
        try:
            points[s.name] = s.iteration_points(kernel.params,
                                                limit=EXHAUSTIVE_POINT_LIMIT)
        except ValueError:
            return None
    return points


def instance_set(compiled: CompiledOperator) -> set:
    """All executed ``(statement, frozen point)`` instances of a variant."""
    out = set()
    for launch in compiled.launches:
        for statement, point in execute(launch.ast, launch.kernel.params):
            out.add((statement.name, tuple(sorted(point.items()))))
    return out


def _check_schedules(compiled: CompiledOperator, problems: list[str]) -> None:
    for launch in compiled.launches:
        relations = compute_dependences(launch.kernel)
        for violation in verify_schedule(launch.schedule, relations):
            problems.append(f"{compiled.variant}/{launch.kernel.name}: "
                            f"schedule violation: {violation}")


def _check_launch_semantics(compiled: CompiledOperator,
                            problems: list[str]) -> None:
    for launch in compiled.launches:
        for problem in check_semantics(launch.kernel, launch.ast):
            problems.append(f"{compiled.variant}/{launch.kernel.name}: "
                            f"{problem}")


def _exhaustive_profiles(compiled: CompiledOperator, pipeline: AkgPipeline):
    """Simulate every block of every launch (no sampling, no warmup), so
    conservation counters are exact rather than extrapolated."""
    profiles = []
    for launch in compiled.launches:
        profiles.append(simulate_kernel(launch, arch=pipeline.arch,
                                        sample_blocks=launch.n_blocks))
    return profiles


def _aligned_vectorization(compiled: CompiledOperator,
                           pipeline: AkgPipeline) -> bool:
    """True iff every vectorized access starts its lane groups on a memory
    transaction boundary.

    A misaligned vector group (e.g. a vector loop rebased at a nonzero
    lower bound, ``theta(i) = i + 2``) legitimately straddles one extra
    transaction per group, so the "vectorization never adds transactions"
    bound only holds for aligned results.  Alignment is checked
    conservatively: in each vectorized access's element-offset expression,
    every term except the lane variable's must be a multiple of the
    transaction granularity (in elements)."""
    for launch in compiled.launches:
        params = launch.kernel.params
        for node in walk(launch.ast):
            if not isinstance(node, Loop) or not node.vector:
                continue
            lane = node.var
            for call in walk(node.body):
                if not isinstance(call, StatementCall) \
                        or call.vector_width <= 1:
                    continue
                for access in call.statement.accesses:
                    strides = access.tensor.strides()
                    unit = max(pipeline.arch.sector_bytes
                               // access.tensor.dtype.size_bytes, 1)
                    offset = LinExpr()
                    for d, sub in enumerate(access.subscripts):
                        composed = LinExpr(const=sub.const)
                        for name, c in sub.coeffs.items():
                            composed = composed \
                                + c * call.iterator_exprs.get(name, var(name))
                        offset = offset + strides[d] * composed
                    if abs(offset.coeffs.get(lane, 0)) != 1:
                        continue  # not lane-contiguous; no vector claim
                    terms = [c for name, c in offset.coeffs.items()
                             if name != lane and name not in params]
                    terms.append(offset.const
                                 + sum(offset.coeffs.get(p, 0) * v
                                       for p, v in params.items()))
                    if any(t % unit != 0 for t in terms):
                        return False
    return True


def differential_oracle(kernel, pipeline: Optional[AkgPipeline] = None,
                        max_threads: int = 256,
                        exhaustive: Optional[bool] = None) -> list[str]:
    """Run the full cross-variant oracle on ``kernel``.

    Returns a list of human-readable problems (empty == the influenced
    compile is semantically identical to the baseline and respects the
    conservation invariants).  ``exhaustive`` defaults to automatic: on
    when every statement domain fits :data:`EXHAUSTIVE_POINT_LIMIT`.
    """
    obs = get_obs()
    problems: list[str] = []
    pipeline = pipeline or AkgPipeline(max_threads=max_threads)
    compiled = {}
    for variant in ("isl", "infl"):
        try:
            compiled[variant] = pipeline.compile(kernel, variant)
        except ReproError as exc:
            problems.append(f"{variant}/{kernel.name}: compilation failed "
                            f"after full ladder: {type(exc).__name__}: {exc}")
    if problems:
        return problems
    isl, infl = compiled["isl"], compiled["infl"]
    if obs.metrics.enabled:
        obs.metrics.count("verify.oracle.operators")
        if infl.degradation != "none":
            obs.metrics.count("verify.oracle.degraded")

    # Analytic checks (any scale): dependence preservation per launch.
    _check_schedules(isl, problems)
    _check_schedules(infl, problems)

    # Rung consistency: compare against the degradation rung actually
    # taken.  The `isl-baseline` rung is defined as "compile exactly what
    # the baseline compiles", so its output must match bit for bit.
    if infl.degradation == "isl-baseline" \
            and infl.signature() != isl.signature():
        problems.append(f"{kernel.name}: isl-baseline fallback differs "
                        f"from the real isl compile")

    if exhaustive is None:
        exhaustive = domain_points(kernel) is not None
    if exhaustive:
        # Per-variant semantics: exact domains, conflict order preserved.
        _check_launch_semantics(isl, problems)
        _check_launch_semantics(infl, problems)
        # Cross-variant instance equality.
        instances_isl = instance_set(isl)
        instances_infl = instance_set(infl)
        if instances_isl != instances_infl:
            only_isl = len(instances_isl - instances_infl)
            only_infl = len(instances_infl - instances_isl)
            problems.append(
                f"{kernel.name}: variant instance sets differ "
                f"({only_isl} only in isl, {only_infl} only in infl)")
        # Conservation under exact simulation.
        prof_isl = _exhaustive_profiles(isl, pipeline)
        prof_infl = _exhaustive_profiles(infl, pipeline)
        flops_isl = sum(p.flops for p in prof_isl)
        flops_infl = sum(p.flops for p in prof_infl)
        if abs(flops_isl - flops_infl) > _REL_EPS * max(flops_isl, 1.0):
            problems.append(f"{kernel.name}: flop totals differ "
                            f"(isl={flops_isl}, infl={flops_infl})")
        footprint = kernel.total_bytes_touched()
        for variant, profs in (("isl", prof_isl), ("infl", prof_infl)):
            moved = sum(p.dram_bytes for p in profs)
            if moved + _REL_EPS * footprint < footprint:
                problems.append(
                    f"{variant}/{kernel.name}: DRAM traffic {moved:.0f}B "
                    f"below the compulsory footprint {footprint}B")
        tx_isl = sum(p.dram_transactions for p in prof_isl)
        tx_infl = sum(p.dram_transactions for p in prof_infl)
        if infl.degradation == "none" and infl.vectorized \
                and _aligned_vectorization(infl, pipeline) \
                and tx_infl > tx_isl * (1.0 + _REL_EPS):
            problems.append(
                f"{kernel.name}: vectorized influenced variant issues more "
                f"DRAM transactions than the baseline "
                f"(infl={tx_infl:.0f} > isl={tx_isl:.0f})")
    if obs.metrics.enabled and problems:
        obs.metrics.count("verify.oracle.problems", len(problems))
    return problems
