"""The AKG-like compilation pipeline and its four evaluation variants.

:class:`AkgPipeline` is a thin driver: each variant maps to a clustering
decision (how statements split into kernel launches) plus the two switches
of the stage chain, influence and vectorization; the actual work happens
in a shared :class:`~repro.pipeline.passes.CompilationSession`, which
carries the per-pass instrumentation and the content-keyed schedule cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.codegen.cuda import MappedKernel
from repro.codegen.ast import Loop, walk
from repro.errors import ReproError
from repro.gpu.arch import GpuArch, V100
from repro.gpu.simulator import KernelProfile, simulate_kernel
from repro.influence.scenarios import CostWeights
from repro.ir.kernel import Kernel
from repro.ir.statement import Statement
from repro.obs import logger, use_obs
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.passes import CompilationSession, PassContext
from repro.schedule.scheduler import SchedulerOptions, SchedulerStats
from repro.schedule.serialize import schedule_content_hash

VARIANTS = ("isl", "tvm", "novec", "infl")

# Graceful-degradation rungs, best first: full-quality variant, the same
# clustering without influence constraints, then the plain isl-style
# baseline compile.  (The `isl` variant has nothing to degrade to.)
DEGRADATION_LEVELS = ("none", "no-influence", "isl-baseline")


@dataclass
class CompiledOperator:
    """One fused operator compiled under one variant."""

    kernel: Kernel
    variant: str
    launches: list[MappedKernel]
    scheduler_stats: list[SchedulerStats] = field(default_factory=list)
    degradation: str = "none"  # one of DEGRADATION_LEVELS
    # Content hash of each launch's schedule (parallel to ``launches``);
    # the run store diffs these across runs to detect schedule changes.
    schedule_hashes: list[str] = field(default_factory=list)

    @property
    def schedule_hash(self) -> str:
        """A single hash covering all launches of this operator."""
        if not self.schedule_hashes:
            return ""
        if len(self.schedule_hashes) == 1:
            return self.schedule_hashes[0]
        import hashlib
        joined = ",".join(self.schedule_hashes)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]

    @property
    def n_launches(self) -> int:
        return len(self.launches)

    @property
    def vectorized(self) -> bool:
        return any(isinstance(node, Loop) and node.vector
                   for launch in self.launches
                   for node in walk(launch.ast))

    def signature(self) -> str:
        """A stable textual signature of the compiled code (used to decide
        whether influence actually modified the result vs the baseline).

        Kernel names are normalized away so the per-cluster ``_k0`` suffixes
        of the distributed baseline do not create spurious differences."""
        parts = []
        for launch in self.launches:
            text = launch.emit_cuda().replace(launch.kernel.name, "<kernel>")
            parts.append(text)
        return "\n===\n".join(parts)


@dataclass
class OperatorTiming:
    """Measured execution of one compiled operator."""

    compiled: CompiledOperator
    profiles: list[KernelProfile]

    @property
    def time(self) -> float:
        return sum(p.time for p in self.profiles)

    @property
    def dram_bytes(self) -> float:
        return sum(p.dram_bytes for p in self.profiles)


def _domain_signature(statement: Statement) -> tuple:
    """Iteration-space signature used for isl-style clustering."""
    return (statement.depth, statement.domain.canonical()[1])


def _adjacent_clusters(kernel: Kernel) -> list[list[Statement]]:
    """Group textually adjacent statements with identical iteration spaces
    (the fusion granularity we observed from isl-0.22 inside AKG: identical
    spaces fuse into one kernel, space changes split the schedule as in
    Fig. 2(b))."""
    clusters: list[list[Statement]] = []
    current: list[Statement] = []
    current_sig = None
    for statement in kernel.statements:
        sig = _domain_signature(statement)
        if current and sig == current_sig:
            current.append(statement)
        else:
            if current:
                clusters.append(current)
            current = [statement]
            current_sig = sig
    if current:
        clusters.append(current)
    return clusters


def _sub_kernel(kernel: Kernel, statements: list[Statement],
                suffix: str) -> Kernel:
    """A kernel view over a subset of statements (tensors shared)."""
    sub = Kernel(f"{kernel.name}{suffix}", params=dict(kernel.params))
    sub.tensors = dict(kernel.tensors)
    sub.statements = list(statements)
    return sub


class AkgPipeline:
    """Compile and measure fused operators under the four variants."""

    def __init__(self, arch: GpuArch = V100, max_threads: int = 256,
                 sample_blocks: int = 8,
                 weights: Optional[CostWeights] = None,
                 scheduler_options: Optional[SchedulerOptions] = None,
                 enable_cache: bool = True,
                 trace: bool = False):
        self.arch = arch
        self.max_threads = max_threads
        self.sample_blocks = sample_blocks
        self.weights = weights = \
            weights if weights is not None else CostWeights()
        self.scheduler_options = scheduler_options or SchedulerOptions()
        self.cache = ScheduleCache() if enable_cache else None
        self.session = CompilationSession(options=self.scheduler_options,
                                          weights=weights,
                                          max_threads=max_threads,
                                          cache=self.cache,
                                          trace=trace)

    @property
    def context(self) -> PassContext:
        """The session's accumulated per-pass metrics."""
        return self.session.context

    # -- compilation --------------------------------------------------------

    def _attempts(self, kernel: Kernel, variant: str) -> list[tuple]:
        """The degradation ladder for ``variant``, best rung first.

        Each entry is ``(level, tag, clusters, influence, enable_vec)``:
        ``tag`` is the variant label the compilation session (and the
        ``compile`` fault-injection site) sees for that rung.  The
        ``isl-baseline`` rung is tagged ``isl`` so it shares schedule
        cache entries — and compiled output — with the actual ``isl``
        baseline compile of the same operator.
        """
        isl_rung = ("isl-baseline", "isl", _adjacent_clusters(kernel),
                    False, False)
        if variant == "isl":
            return [("none", "isl", _adjacent_clusters(kernel), False, False)]
        if variant == "tvm":
            per_stmt = [[s] for s in kernel.statements]
            return [("none", "tvm", per_stmt, True, False),
                    ("no-influence", "tvm", per_stmt, False, False),
                    isl_rung]
        # novec / infl: whole-kernel influenced compilation.
        enable_vec = variant == "infl"
        return [("none", variant, None, True, enable_vec),
                ("no-influence", variant, None, False, enable_vec),
                isl_rung]

    def _compile_once(self, kernel: Kernel, variant: str, tag: str,
                      clusters, influence: bool,
                      enable_vec: bool) -> CompiledOperator:
        if clusters is None:
            parts = [kernel]
        else:
            parts = [_sub_kernel(kernel, cluster, f"_k{index}")
                     for index, cluster in enumerate(clusters)]
        results = [self.session.run(part, influence=influence,
                                    enable_vec=enable_vec, variant=tag)
                   for part in parts]
        return CompiledOperator(kernel=kernel, variant=variant,
                                launches=[r.mapped for r in results],
                                scheduler_stats=[r.scheduler_stats
                                                 for r in results],
                                schedule_hashes=[
                                    schedule_content_hash(r.schedule)
                                    for r in results])

    def compile(self, kernel: Kernel, variant: str) -> CompiledOperator:
        """Compile under ``variant``, degrading gracefully on failure.

        Typed failures (:class:`~repro.errors.ReproError`: solver
        timeouts, scheduling dead ends, codegen limits) descend the
        ladder from :meth:`_attempts`; the result records the rung it was
        produced at in ``CompiledOperator.degradation``.  Only when every
        rung fails does the last error propagate to the caller.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        last_error: Optional[ReproError] = None
        for level, tag, clusters, influence, enable_vec in \
                self._attempts(kernel, variant):
            try:
                compiled = self._compile_once(kernel, variant, tag, clusters,
                                              influence, enable_vec)
            except ReproError as exc:
                last_error = exc
                context = self.session.context
                context.count("resilience.fallback")
                context.obs.event("resilience.fallback", kernel=kernel.name,
                                  variant=variant, failed_level=level,
                                  error=f"{type(exc).__name__}: {exc}")
                logger.warning("%s/%s: %s at degradation level %r; "
                               "descending the ladder",
                               kernel.name, variant,
                               type(exc).__name__, level)
                continue
            compiled.degradation = level
            if level != "none":
                self.session.context.count("resilience.degraded")
            return compiled
        assert last_error is not None
        raise last_error

    # -- measurement -----------------------------------------------------------

    def measure(self, compiled: CompiledOperator) -> OperatorTiming:
        with use_obs(self.session.context.obs):
            profiles = [simulate_kernel(launch, arch=self.arch,
                                        sample_blocks=self.sample_blocks)
                        for launch in compiled.launches]
        return OperatorTiming(compiled=compiled, profiles=profiles)

    def compile_and_measure(self, kernel: Kernel,
                            variant: str) -> OperatorTiming:
        return self.measure(self.compile(kernel, variant))
