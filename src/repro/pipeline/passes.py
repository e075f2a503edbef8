"""The compilation stage chain and its instrumentation.

:meth:`CompilationSession.run` is the AKG flow of Fig. 1(b) as one fixed
chain: ``deps -> influence-tree -> schedule`` (the front end) then
``codegen -> vectorize -> tile -> gpu-map`` (the back end).  Three
values choose which stages run: influence on/off, vectorization on/off,
and optional tile sizes (the tile autotuner's).  Each stage is timed into
the session's :class:`PassContext`, which also aggregates scheduler
counters (ILP solves, backtracking activations, ...) and, optionally, a
span trace.  A content-keyed :class:`~repro.pipeline.cache.ScheduleCache`
serves the front end (dependence relations, finished schedule) of
structurally equal kernels, and the finished launch of each back-end
setting, instead of recompiling from scratch.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
PASS_ORDER = ("deps", "influence-tree", "schedule", "codegen", "vectorize",
              "tile", "gpu-map")


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


# -- the session ------------------------------------------------------------


@dataclass
class CompileResult:
    """What one :meth:`CompilationSession.run` hands back."""

    schedule: object
    scheduler_stats: Optional[SchedulerStats]
    mapped: MappedKernel
    tiled_loops: int = 0


class CompilationSession:
    """Runs the stage chain over kernels, with caching and instrumentation.

    One session is shared by all compilations of a pipeline: its
    :class:`PassContext` accumulates metrics across kernels and variants,
    and its :class:`~repro.pipeline.cache.ScheduleCache` (when present)
    serves the front end, and the finished launch, of content-equal
    kernels.
    """

    def __init__(self, options: Optional[SchedulerOptions] = None,
                 weights: Optional[CostWeights] = None,
                 max_threads: int = 256,
                 cache=None,
                 trace: bool = False):
        self.options = options or SchedulerOptions()
        self.weights = weights if weights is not None else CostWeights()
        self.max_threads = max_threads
        self.cache = cache
        self.context = PassContext(trace=trace)

    def run(self, kernel: Kernel, *, influence: bool, enable_vec: bool,
            tile_sizes: Optional[Sequence[int]] = None,
            variant: str = "custom") -> CompileResult:
        """Compile ``kernel``: the front end (``deps``, ``influence-tree``
        when ``influence``, ``schedule``) on a schedule-cache miss, the
        back end (``codegen``, ``vectorize``, ``tile`` when ``tile_sizes``
        is given, ``gpu-map``) on a launch-cache miss.

        The session's :class:`~repro.obs.Obs` bundle is installed as the
        ambient handle for the duration, so deep instrumentation (solver
        pivots, scheduler spans) lands in this context."""
        if tile_sizes is not None:
            tile_sizes = tuple(tile_sizes)
        context = self.context

        def stage(name: str):
            return context.timed(name, kernel=kernel.name, variant=variant)

        with use_obs(context.obs), \
                context.obs.span("compile", kernel=kernel.name,
                                 variant=variant):
            # Fault-injection site: sits BEFORE the cache lookup so an
            # injected failure fires even when the front end would be
            # served from cache (the `infl` variant usually hits the
            # entry stored by `novec`).
            action = fault_action("compile", kernel=kernel.name,
                                  variant=variant, influence=influence)
            if action is not None:
                raise_fault(action, "compile", kernel=kernel.name,
                            variant=variant, influence=influence)
            key = entry = None
            launch_key = (enable_vec, tile_sizes, self.max_threads)
            if self.cache is not None:
                key = self.cache.key_for(kernel, influence=influence,
                                         options=self.options,
                                         weights=self.weights)
                entry = self.cache.get(key)
            if entry is not None:
                context.obs.event("cache-hit", kernel=kernel.name,
                                  variant=variant)
                launch = entry.launches.get(launch_key)
                if launch is not None:
                    context.count("cache.launch_hits")
                    template, tiled_loops = launch
                    return CompileResult(entry.schedule, entry.stats,
                                         template.rebound(kernel),
                                         tiled_loops)
                relations, schedule, stats = \
                    entry.relations, entry.schedule, entry.stats
            else:
                with stage("deps"):
                    relations = compute_dependences(kernel)
                    context.count("deps.relations", len(relations))
                tree = None
                if influence:
                    with stage("influence-tree"):
                        tree = build_influence_tree(kernel,
                                                    weights=self.weights)
                with stage("schedule"):
                    scheduler = InfluencedScheduler(kernel,
                                                    relations=relations,
                                                    options=self.options)
                    schedule = scheduler.schedule(tree)
                    stats = scheduler.stats
                    context.add_counters(stats.as_dict(),
                                         prefix="scheduler.")
            with stage("codegen"):
                ast = generate_ast(kernel, schedule)
            with stage("vectorize"):
                ast = vectorize(ast, kernel, schedule, relations,
                                enable=enable_vec)
            tiled_loops = 0
            if tile_sizes is not None:
                with stage("tile"):
                    if tile_sizes:
                        tiled_loops = tile_band(ast, schedule, kernel.params,
                                                tile_sizes)
            with stage("gpu-map"):
                mapped = map_to_gpu(kernel, ast, schedule,
                                    max_threads=self.max_threads)
            if key is not None:
                if entry is None:
                    entry = self.cache.store(key, relations=relations,
                                             schedule=schedule, stats=stats)
                # Stored apart from the copies handed out, so simulating a
                # copy leaves no simulator state in the cache; the profile
                # signature is rendered once here and every copy keeps it.
                template = mapped.rebound(mapped.kernel)
                launch_signature(template)
                entry.launches[launch_key] = (template, tiled_loops)
                mapped = template.rebound(kernel)
        return CompileResult(schedule, stats, mapped, tiled_loops)
