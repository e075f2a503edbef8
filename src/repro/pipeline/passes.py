"""Pass-manager architecture for the compilation pipeline.

The monolithic ``deps -> schedule -> codegen -> vectorize -> map`` call
chain is re-expressed as a list of small :class:`Pass` objects driven by a
:class:`CompilationSession`.  The session carries a :class:`PassContext`
that aggregates per-pass wall time, scheduler counters (ILP solves,
backtracking activations, ...) and — optionally — a span trace,
and consults a content-keyed :class:`~repro.pipeline.cache.ScheduleCache`
so structurally equal kernels reuse the expensive schedule-producing
prefix (dependence analysis, influence-tree build, influenced scheduling)
and the finished launch of each back-end pass list (codegen, tiling,
vectorization, GPU mapping) instead of recompiling from scratch.

Pass lists are data: :func:`variant_passes` builds the list for each of
the paper's four evaluation variants, and callers may splice in extra
stages (the tile autotuner inserts :class:`TilingPass` before mapping).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence, runtime_checkable

from repro.codegen.cuda import MappedKernel, map_to_gpu
from repro.codegen.generate import generate_ast
from repro.codegen.tiling import tile_band
from repro.codegen.vectorize import vectorize
from repro.deps.analysis import compute_dependences
from repro.faultinject import fault_action, raise_fault
from repro.gpu.profile_cache import launch_signature
from repro.influence.builder import build_influence_tree
from repro.influence.scenarios import CostWeights
from repro.ir.kernel import Kernel
from repro.obs import MetricsRegistry, Obs, Tracer, use_obs
from repro.obs.metrics import format_histogram_line, Histogram
from repro.schedule.scheduler import (
    InfluencedScheduler,
    SchedulerOptions,
    SchedulerStats,
)

# Canonical pass execution order (used by summaries for stable display).
PASS_ORDER = ("deps", "influence-tree", "schedule", "codegen", "tile",
              "vectorize", "gpu-map")


# -- metrics ----------------------------------------------------------------


class PassContext:
    """Aggregated instrumentation of one or more compilation sessions.

    The context owns an :class:`Obs` bundle: a metrics registry (always
    on: ``counters`` delegates to it, and each pass run lands in a
    ``pass.<name>.seconds`` histogram) and a tracer (hierarchical spans,
    on only when ``trace=True``).  Contexts merge: per-worker snapshots
    from a parallel evaluation fold into a single report (spans arrive
    wall-anchored and are time-sorted by the tracer).
    """

    def __init__(self, trace: bool = False):
        self.obs = Obs(tracer=Tracer(enabled=trace),
                       metrics=MetricsRegistry())

    @property
    def counters(self) -> dict[str, float]:
        return self.obs.metrics.counters

    # -- recording -----------------------------------------------------------

    @contextmanager
    def timed(self, name: str, **trace_fields):
        """Time one pass execution into its histogram (and a span when
        tracing)."""
        start = time.perf_counter()
        with self.obs.span(f"pass.{name}", **trace_fields):
            try:
                yield
            finally:
                self.obs.observe(f"pass.{name}.seconds",
                                 time.perf_counter() - start)

    def count(self, name: str, amount: float = 1) -> None:
        self.obs.metrics.count(name, amount)

    def add_counters(self, mapping: dict, prefix: str = "") -> None:
        for name, amount in mapping.items():
            self.count(f"{prefix}{name}", amount)

    # -- (de)serialization and merging ---------------------------------------

    def as_dict(self) -> dict:
        """JSON-safe snapshot (what parallel workers ship back).

        ``passes`` is derived from the ``pass.<name>.seconds`` histograms:
        their count is the pass's calls and their total its seconds."""
        metrics = self.obs.metrics.as_dict()
        histograms = metrics["histograms"]
        payload = {
            "passes": {name[len("pass."):-len(".seconds")]:
                       {"calls": entry["count"], "seconds": entry["total"]}
                       for name, entry in histograms.items()
                       if name.startswith("pass.")
                       and name.endswith(".seconds")},
            "counters": metrics["counters"],
            "histograms": histograms,
        }
        spans = self.obs.tracer.as_dict()["spans"]
        if spans:
            payload["spans"] = spans
        return payload

    def merge_dict(self, payload: dict) -> None:
        """Fold one :meth:`as_dict` snapshot into this context."""
        self.obs.metrics.merge_dict(payload)
        self.obs.tracer.merge_dict(payload)

    def chrome_trace(self) -> dict:
        """The (merged) span log as Chrome trace-event JSON."""
        return self.obs.tracer.chrome_trace()

    def format_summary(self) -> str:
        """Human-readable per-pass timing table plus headline counters."""
        return format_pass_summary(self.as_dict())


def merge_metric_dicts(payloads: Iterable[dict]) -> dict:
    """Merge several :meth:`PassContext.as_dict` snapshots into one."""
    return merge_contexts(payloads).as_dict()


def merge_contexts(payloads: Iterable[dict]) -> PassContext:
    """Merge snapshots into a fresh tracing context (spans preserved)."""
    merged = PassContext(trace=True)  # keep spans from any payload
    for payload in payloads:
        merged.merge_dict(payload)
    return merged


def format_pass_summary(metrics: dict) -> str:
    """Render merged pass metrics as a small fixed-width table."""
    passes = metrics.get("passes", {})
    counters = metrics.get("counters", {})
    lines = ["per-pass compile time:",
             f"  {'pass':<16}{'calls':>8}{'total ms':>12}{'mean us':>12}"]
    ordered = [n for n in PASS_ORDER if n in passes]
    ordered += sorted(n for n in passes if n not in PASS_ORDER)
    for name in ordered:
        entry = passes[name]
        calls = entry.get("calls", 0)
        seconds = entry.get("seconds", 0.0)
        mean_us = seconds / calls * 1e6 if calls else 0.0
        lines.append(f"  {name:<16}{calls:>8}{seconds * 1e3:>12.2f}"
                     f"{mean_us:>12.1f}")
    hits = int(counters.get("cache.hits", 0))
    misses = int(counters.get("cache.misses", 0))
    if hits or misses:
        rate = hits / (hits + misses) * 100.0
        launches = int(counters.get("cache.launch_hits", 0))
        lines.append(f"  schedule cache: {hits} hits / {misses} misses "
                     f"({rate:.1f}% hit rate); {launches} hits served "
                     f"the finished launch")
    for label, prefix in (("profile cache", "sim.profile_cache"),
                          ("dependence memo", "cache.deps"),
                          ("emptiness memo", "cache.emptiness"),
                          ("farkas memo", "cache.farkas"),
                          ("ilp memo", "cache.ilp")):
        reuse_hits = int(counters.get(f"{prefix}.hits", 0))
        reuse_misses = int(counters.get(f"{prefix}.misses", 0))
        if reuse_hits or reuse_misses:
            reuse_rate = reuse_hits / (reuse_hits + reuse_misses) * 100.0
            # Profile, Farkas and ILP memo evictions show when a bound is
            # too small.
            evicted = (f" / {int(counters.get(f'{prefix}.evictions', 0))} "
                       f"evictions"
                       if prefix in ("sim.profile_cache", "cache.farkas",
                                     "cache.ilp")
                       else "")
            lines.append(f"  {label}: {reuse_hits} hits / "
                         f"{reuse_misses} misses{evicted} "
                         f"({reuse_rate:.1f}% hit rate)")
    scheduler = {name[len("scheduler."):]: int(amount)
                 for name, amount in sorted(counters.items())
                 if name.startswith("scheduler.") and amount}
    if scheduler:
        rendered = ", ".join(f"{k}={v}" for k, v in scheduler.items())
        lines.append(f"  scheduler: {rendered}")
    fastpath = {name[len("sim.fastpath."):]: int(amount)
                for name, amount in sorted(counters.items())
                if name.startswith("sim.fastpath.") and amount}
    if fastpath:
        rendered = ", ".join(f"{k}={v}" for k, v in fastpath.items())
        lines.append(f"  simulator fast path: {rendered}")
    histograms = metrics.get("histograms", {})
    hist = histograms.get("solver.solve_seconds")
    if hist:
        lines.append(format_histogram_line("solver.solve_seconds",
                                           Histogram.from_dict(hist)))
    return "\n".join(lines)


# -- session state ----------------------------------------------------------


@dataclass
class PassState:
    """Mutable state threaded through one pass list over one kernel."""

    kernel: Kernel
    variant: str = "custom"
    relations: Optional[list] = None
    tree: Optional[object] = None
    schedule: Optional[object] = None
    scheduler_stats: Optional[SchedulerStats] = None
    ast: Optional[object] = None
    mapped: Optional[MappedKernel] = None
    tiled_loops: int = 0
    from_cache: bool = False


@runtime_checkable
class Pass(Protocol):
    """One compilation stage.

    ``cacheable`` marks the schedule-producing prefix: passes whose outputs
    are stored in (and restored from) the content-keyed schedule cache.
    The other (back-end) passes carry a hashable ``launch_key`` naming
    their settings: the finished launch is cached under the back-end
    passes' keys.
    """

    name: str
    cacheable: bool

    def run(self, state: PassState, session: "CompilationSession") -> None:
        ...


# -- concrete passes --------------------------------------------------------


class DependenceAnalysisPass:
    """Compute the kernel's dependence relations."""

    name = "deps"
    cacheable = True

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.relations = compute_dependences(state.kernel)
        session.context.count("deps.relations", len(state.relations))


class InfluenceTreePass:
    """Build the influence constraint tree (Algorithm 2 + Section IV)."""

    name = "influence-tree"
    cacheable = True

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.tree = build_influence_tree(state.kernel,
                                          weights=session.weights)


class SchedulingPass:
    """Run Algorithm 1 (influenced when a tree was built)."""

    name = "schedule"
    cacheable = True

    def run(self, state: PassState, session: "CompilationSession") -> None:
        scheduler = InfluencedScheduler(state.kernel,
                                        relations=state.relations,
                                        options=session.options)
        state.schedule = scheduler.schedule(state.tree)
        state.scheduler_stats = scheduler.stats
        session.context.add_counters(scheduler.stats.as_dict(),
                                     prefix="scheduler.")


class AstGenerationPass:
    """Polyhedral code generation: schedule -> loop AST."""

    name = "codegen"
    cacheable = False
    launch_key = ("codegen",)

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.ast = generate_ast(state.kernel, state.schedule)


class TilingPass:
    """Apply band tiling between code generation and mapping."""

    name = "tile"
    cacheable = False

    def __init__(self, tile_sizes: Sequence[int]):
        self.tile_sizes = tuple(tile_sizes)
        self.launch_key = ("tile", self.tile_sizes)

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.tiled_loops = tile_band(state.ast, state.schedule,
                                      state.kernel.params, self.tile_sizes) \
            if self.tile_sizes else 0


class VectorizePass:
    """Finalize (or strip, for ``novec``/baselines) vector-marked loops."""

    name = "vectorize"
    cacheable = False

    def __init__(self, enable: bool):
        self.enable = enable
        self.launch_key = ("vectorize", enable)

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.ast = vectorize(state.ast, state.kernel, state.schedule,
                              state.relations, enable=self.enable)


class GpuMappingPass:
    """Map the AST onto a CUDA launch geometry."""

    name = "gpu-map"
    cacheable = False
    launch_key = ("gpu-map",)

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.mapped = map_to_gpu(state.kernel, state.ast, state.schedule,
                                  max_threads=session.max_threads)


def variant_passes(influence: bool, enable_vec: bool) -> tuple:
    """The pass list shared by the four variants: influence-tree build is
    present for influenced configurations (``tvm``/``novec``/``infl``),
    vectorization is finalized only for ``infl``."""
    passes: list = [DependenceAnalysisPass()]
    if influence:
        passes.append(InfluenceTreePass())
    passes += [SchedulingPass(), AstGenerationPass(),
               VectorizePass(enable_vec), GpuMappingPass()]
    return tuple(passes)


# -- the session ------------------------------------------------------------


class CompilationSession:
    """Drives pass lists over kernels, with caching and instrumentation.

    One session is shared by all compilations of a pipeline: its
    :class:`PassContext` accumulates metrics across kernels and variants,
    and its :class:`~repro.pipeline.cache.ScheduleCache` (when present)
    short-circuits the cacheable prefix for content-equal kernels.
    """

    def __init__(self, options: Optional[SchedulerOptions] = None,
                 weights: Optional[CostWeights] = None,
                 max_threads: int = 256,
                 cache=None,
                 context: Optional[PassContext] = None,
                 trace: bool = False):
        self.options = options or SchedulerOptions()
        self.weights = weights if weights is not None else CostWeights()
        self.max_threads = max_threads
        self.cache = cache
        self.context = context or PassContext(trace=trace)

    def run(self, kernel: Kernel, passes: Sequence[Pass],
            variant: str = "custom") -> PassState:
        """Run ``passes`` over ``kernel``; returns the final state.

        The session's :class:`~repro.obs.Obs` bundle is installed as the
        ambient handle for the duration, so deep instrumentation (solver
        pivots, scheduler spans) lands in this context."""
        state = PassState(kernel=kernel, variant=variant)
        influence = any(isinstance(p, InfluenceTreePass) for p in passes)
        with use_obs(self.context.obs), \
                self.context.obs.span("compile", kernel=kernel.name,
                                      variant=variant):
            # Fault-injection site: sits BEFORE the cache lookup so an
            # injected failure fires even when the schedule-producing
            # prefix would be served from cache (the `infl` variant
            # usually hits the entry stored by `novec`).
            action = fault_action("compile", kernel=kernel.name,
                                  variant=variant, influence=influence)
            if action is not None:
                raise_fault(action, "compile", kernel=kernel.name,
                            variant=variant, influence=influence)
            key = entry = launch = None
            if self.cache is not None \
                    and any(getattr(p, "cacheable", False) for p in passes):
                key = self.cache.key_for(kernel, influence=influence,
                                         options=self.options,
                                         weights=self.weights)
                launch_key = tuple(p.launch_key for p in passes
                                   if not p.cacheable) + (self.max_threads,)
                entry = self.cache.get(key)
                if entry is not None:
                    state.relations = entry.relations
                    state.schedule = entry.schedule
                    state.scheduler_stats = entry.stats
                    state.from_cache = True
                    launch = entry.launches.get(launch_key)
                    self.context.obs.event("cache-hit", kernel=kernel.name,
                                           variant=variant)
            if launch is None:
                for p in passes:
                    if state.from_cache and p.cacheable:
                        continue
                    with self.context.timed(p.name, kernel=kernel.name,
                                            variant=variant):
                        p.run(state, self)
                if key is not None:
                    if entry is None:
                        entry = self.cache.store(
                            key, relations=state.relations,
                            schedule=state.schedule,
                            stats=state.scheduler_stats)
                    if state.mapped is not None:
                        # Stored apart from the copies handed out, so
                        # simulating a copy leaves no simulator state in
                        # the cache; the profile signature is rendered
                        # once here and every copy keeps it.
                        template = state.mapped.rebound(state.mapped.kernel)
                        launch_signature(template)
                        launch = entry.launches[launch_key] = (
                            template, state.tiled_loops)
            else:
                self.context.count("cache.launch_hits")
            if launch is not None:
                template, state.tiled_loops = launch
                state.ast = template.ast
                state.mapped = template.rebound(kernel)
        return state
