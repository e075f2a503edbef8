"""Pass-manager architecture for the compilation pipeline.

The monolithic ``deps -> schedule -> codegen -> vectorize -> map`` call
chain is re-expressed as a list of small :class:`Pass` objects driven by a
:class:`CompilationSession`.  The session carries a :class:`PassContext`
that aggregates per-pass wall time, scheduler counters (ILP solves,
backtracking activations, ...) and — optionally — a structured trace log,
and consults a content-keyed :class:`~repro.pipeline.cache.ScheduleCache`
so structurally equal kernels reuse the expensive schedule-producing
prefix (dependence analysis, influence-tree build, influenced scheduling)
instead of recompiling from scratch.

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

    Re-based on :mod:`repro.obs`: the context owns an :class:`Obs` bundle —
    a metrics registry (always on: ``counters`` delegates to it) and a
    tracer (hierarchical spans, on only when ``trace=True``).
    ``pass_seconds``/``pass_calls`` hold per-pass wall time, and ``events``
    is the legacy flat trace log — every event now stamped with a
    wall-anchored monotonic ``ts`` and a ``worker`` id so merged
    multi-worker logs keep a coherent order.  Contexts merge: per-worker
    snapshots from a parallel evaluation fold into a single report (spans
    are clock-offset-normalized by the tracer, then time-sorted).
    """

    def __init__(self, trace: bool = False, obs: Optional[Obs] = None):
        if obs is None:
            obs = Obs(tracer=Tracer(enabled=trace),
                      metrics=MetricsRegistry())
        self.obs = obs
        self.pass_seconds: dict[str, float] = {}
        self.pass_calls: dict[str, int] = {}
        self.events: list[dict] = []

    @property
    def trace_enabled(self) -> bool:
        return self.obs.tracer.enabled

    @property
    def counters(self) -> dict[str, float]:
        return self.obs.metrics.counters

    # -- recording -----------------------------------------------------------

    @contextmanager
    def timed(self, name: str, **trace_fields):
        """Time one pass execution; records a span (and a stamped legacy
        event) when tracing."""
        start = time.perf_counter()
        with self.obs.span(f"pass.{name}", **trace_fields):
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.pass_seconds[name] = \
                    self.pass_seconds.get(name, 0.0) + elapsed
                self.pass_calls[name] = self.pass_calls.get(name, 0) + 1
                self.obs.observe(f"pass.{name}.seconds", elapsed)
                if self.trace_enabled:
                    self.events.append({
                        "event": "pass", "pass": name, "seconds": elapsed,
                        "ts": self.obs.tracer.now() - elapsed,
                        "worker": self.obs.tracer.worker, **trace_fields})

    def count(self, name: str, amount: float = 1) -> None:
        self.obs.metrics.count(name, amount)

    def add_counters(self, mapping: dict, prefix: str = "") -> None:
        for name, amount in mapping.items():
            self.count(f"{prefix}{name}", amount)

    def record(self, event: str, **fields) -> None:
        """Append a structured trace event (no-op unless tracing)."""
        if self.trace_enabled:
            self.obs.event(event, **fields)
            self.events.append({"event": event,
                                "ts": self.obs.tracer.now(),
                                "worker": self.obs.tracer.worker, **fields})

    # -- (de)serialization and merging ---------------------------------------

    def as_dict(self) -> dict:
        """JSON-safe snapshot (what parallel workers ship back)."""
        metrics = self.obs.metrics.as_dict()
        payload = {
            "passes": {name: {"calls": self.pass_calls.get(name, 0),
                              "seconds": self.pass_seconds.get(name, 0.0)}
                       for name in self.pass_seconds},
            "counters": metrics["counters"],
            "gauges": metrics["gauges"],
            "histograms": metrics["histograms"],
        }
        if self.events:
            payload["events"] = list(self.events)
        spans = self.obs.tracer.as_dict()["spans"]
        if spans:
            payload["spans"] = spans
        return payload

    def merge_dict(self, payload: dict) -> None:
        """Fold one :meth:`as_dict` snapshot into this context."""
        for name, entry in payload.get("passes", {}).items():
            self.pass_seconds[name] = \
                self.pass_seconds.get(name, 0.0) + entry.get("seconds", 0.0)
            self.pass_calls[name] = \
                self.pass_calls.get(name, 0) + entry.get("calls", 0)
        self.obs.metrics.merge_dict({
            "counters": payload.get("counters", {}),
            "gauges": payload.get("gauges", {}),
            "histograms": payload.get("histograms", {})})
        self.events.extend(payload.get("events", ()))
        self.events.sort(key=lambda e: e.get("ts", 0.0))
        self.obs.tracer.merge_dict({"spans": payload.get("spans", ())})

    def merge(self, other: "PassContext") -> None:
        self.merge_dict(other.as_dict())

    def chrome_trace(self) -> dict:
        """The (merged) span log as Chrome trace-event JSON."""
        return self.obs.tracer.chrome_trace()

    def format_summary(self) -> str:
        """Human-readable per-pass timing table plus headline counters."""
        return format_pass_summary(self.as_dict())


def merge_metric_dicts(payloads: Iterable[dict]) -> dict:
    """Merge several :meth:`PassContext.as_dict` snapshots into one."""
    merged = merge_contexts(payloads)
    out = merged.as_dict()
    out.setdefault("passes", {})
    out.setdefault("counters", {})
    return out


def merge_contexts(payloads: Iterable[dict]) -> PassContext:
    """Merge snapshots into a fresh tracing context (spans preserved)."""
    merged = PassContext(trace=True)  # keep events/spans from any payload
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
        lines.append(f"  schedule cache: {hits} hits / {misses} misses "
                     f"({rate:.1f}% hit rate)")
    for label, prefix in (("profile cache", "sim.profile_cache"),
                          ("dependence memo", "cache.deps"),
                          ("emptiness memo", "cache.emptiness"),
                          ("farkas memo", "cache.farkas")):
        reuse_hits = int(counters.get(f"{prefix}.hits", 0))
        reuse_misses = int(counters.get(f"{prefix}.misses", 0))
        if reuse_hits or reuse_misses:
            reuse_rate = reuse_hits / (reuse_hits + reuse_misses) * 100.0
            # Profile and Farkas memo evictions show when a bound is too
            # small.
            evicted = (f" / {int(counters.get(f'{prefix}.evictions', 0))} "
                       f"evictions"
                       if prefix in ("sim.profile_cache", "cache.farkas")
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

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.ast = generate_ast(state.kernel, state.schedule)


class TilingPass:
    """Apply band tiling between code generation and mapping."""

    name = "tile"
    cacheable = False

    def __init__(self, tile_sizes: Sequence[int]):
        self.tile_sizes = tuple(tile_sizes)

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

    def run(self, state: PassState, session: "CompilationSession") -> None:
        state.ast = vectorize(state.ast, state.kernel, state.schedule,
                              state.relations, enable=self.enable)


class GpuMappingPass:
    """Map the AST onto a CUDA launch geometry."""

    name = "gpu-map"
    cacheable = False

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
            key = None
            if self.cache is not None \
                    and any(getattr(p, "cacheable", False) for p in passes):
                key = self.cache.key_for(kernel, influence=influence,
                                         options=self.options,
                                         weights=self.weights)
                entry = self.cache.get(key)
                if entry is not None:
                    state.relations = entry.relations
                    state.schedule = entry.schedule
                    state.scheduler_stats = entry.stats
                    state.from_cache = True
                    self.context.record("cache-hit", kernel=kernel.name,
                                        variant=variant)
            for p in passes:
                if state.from_cache and p.cacheable:
                    continue
                with self.context.timed(p.name, kernel=kernel.name,
                                        variant=variant):
                    p.run(state, self)
            if key is not None and not state.from_cache:
                self.cache.store(key, relations=state.relations,
                                 schedule=state.schedule,
                                 stats=state.scheduler_stats)
        return state
