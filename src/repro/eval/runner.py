"""Run fused-operator suites through the four compilation variants.

For every operator we compile/measure ``isl``, ``tvm``, ``novec`` and
``infl`` and record:

* the four execution times (from the GPU model),
* whether influence modified the compiled result (``influenced``: the
  normalized code signatures of ``isl`` and ``infl`` differ),
* whether the influenced result uses explicit vector types (``vec``).

These are the quantities Table II aggregates.

Suites can be evaluated in parallel (``jobs > 1``): operators are farmed
out to a fork pool (:mod:`repro.eval.supervisor`), each worker
regenerating its kernels deterministically from ``(network, seed,
limit)`` so no IR crosses process boundaries, and the per-worker pass
metrics are merged into one report.  The compilation model is
deterministic, so the parallel path produces bitwise-identical results to
the serial one.

Failures are isolated per operator: a typed compilation failure
(:class:`~repro.errors.ReproError`) marks that operator's
:attr:`OperatorResult.status` ``failed`` (or ``degraded`` when the
pipeline's fallback ladder produced a lower-quality result) instead of
aborting the run.  Fault decisions are content-keyed
(:mod:`repro.faultinject`: the ``compile``, ``scheduler.dimension`` and
``store.append`` sites), so serial and parallel runs produce identical
degradation records.  A dead worker process fails the whole run.

With an :class:`~repro.eval.checkpoint.EvalCheckpoint`, every completed
operator is durably appended as it finishes and a ``--resume`` run
reloads completed operators by content key, scheduling only the
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ReproError
from repro.gpu.arch import GpuArch, V100
from repro.influence.scenarios import CostWeights
from repro.ir.kernel import Kernel
from repro.obs import logger, use_obs
from repro.pipeline.akg import AkgPipeline, VARIANTS
from repro.pipeline.passes import PassContext, merge_metric_dicts
from repro.schedule.scheduler import SchedulerOptions
from repro.solver.budget import SolveBudget
from repro.workloads.generator import generate_network_suite
from repro.workloads.networks import NETWORKS

OPERATOR_STATUSES = ("ok", "degraded", "failed")


@dataclass
class EvaluationConfig:
    """Knobs for an evaluation run."""

    seed: int = 0
    limit_per_network: Optional[int] = None  # None = the paper's full counts
    sample_blocks: int = 8
    max_threads: int = 256
    arch: GpuArch = V100
    weights: CostWeights = field(default_factory=CostWeights)
    jobs: int = 1          # worker processes; 1 = serial (deterministic tests)
    trace: bool = False    # record structured pass-trace events
    deadline_ms: Optional[float] = None  # wall-clock solve budget per attempt
    verify: bool = False   # run the differential oracle on every operator
    templates: bool = True  # measure the per-class template baseline column


@dataclass
class OperatorResult:
    """Per-operator measurements across the four variants."""

    name: str
    op_class: str
    times: dict  # variant -> seconds (absent for failed variants)
    influenced: bool
    vectorized: bool
    launches: dict  # variant -> number of kernel launches
    scheduler_stats: dict = field(default_factory=dict)
    status: str = "ok"          # one of OPERATOR_STATUSES
    degradation: dict = field(default_factory=dict)  # variant -> rung
    error: str = ""             # "variant: ExcType: message; ..." when failed
    verify_problems: list = field(default_factory=list)  # oracle findings
    schedule_hashes: dict = field(default_factory=dict)  # variant -> hash

    def speedup(self, variant: str) -> float:
        base = self.times.get("isl")
        other = self.times.get(variant)
        if base is None or not other:
            return float("nan")
        return base / other

    def as_record(self) -> dict:
        """The run-store representation of this operator (see
        :mod:`repro.obs.store`)."""
        record = {
            "name": self.name,
            "op_class": self.op_class,
            "times": dict(self.times),
            "influenced": self.influenced,
            "vectorized": self.vectorized,
            "launches": dict(self.launches),
            "status": self.status,
            "schedule_hashes": dict(self.schedule_hashes),
        }
        if self.degradation:
            record["degradation"] = dict(self.degradation)
        if self.error:
            record["error"] = self.error
        if self.verify_problems:
            record["verify_problems"] = list(self.verify_problems)
        return record


@dataclass
class NetworkResult:
    """All operator results of one network."""

    network: str
    operators: list[OperatorResult]
    metrics: dict = field(default_factory=dict)  # merged pass metrics

    # -- Table II aggregates -------------------------------------------------

    @property
    def count_total(self) -> int:
        return len(self.operators)

    @property
    def count_vec(self) -> int:
        return sum(1 for op in self.operators if op.vectorized)

    @property
    def count_influenced(self) -> int:
        return sum(1 for op in self.operators if op.influenced)

    # -- resilience aggregates ----------------------------------------------

    @property
    def count_ok(self) -> int:
        return sum(1 for op in self.operators if op.status == "ok")

    @property
    def count_degraded(self) -> int:
        return sum(1 for op in self.operators if op.status == "degraded")

    @property
    def count_failed(self) -> int:
        return sum(1 for op in self.operators if op.status == "failed")

    def _ops_with(self, *variants: str,
                  influenced_only: bool = False) -> list[OperatorResult]:
        return [op for op in self.operators
                if all(v in op.times for v in variants)
                and (not influenced_only or op.influenced)]

    def total_time(self, variant: str, influenced_only: bool = False) -> float:
        ops = self._ops_with(variant, influenced_only=influenced_only)
        return sum(op.times[variant] for op in ops)

    def speedup(self, variant: str, influenced_only: bool = False) -> float:
        # Both totals over the same operators (those with both variants
        # measured), so partially-failed operators do not bias the ratio.
        ops = self._ops_with("isl", variant, influenced_only=influenced_only)
        base = sum(op.times["isl"] for op in ops)
        other = sum(op.times[variant] for op in ops)
        return base / other if other else float("nan")


def _make_pipeline(config: EvaluationConfig) -> AkgPipeline:
    options = None
    if config.deadline_ms:
        options = SchedulerOptions(
            budget=SolveBudget(deadline_s=config.deadline_ms / 1000.0))
    return AkgPipeline(arch=config.arch, max_threads=config.max_threads,
                       sample_blocks=config.sample_blocks,
                       weights=config.weights,
                       scheduler_options=options,
                       trace=config.trace)


def evaluate_operator(pipeline: AkgPipeline, name: str, op_class: str,
                      kernel: Kernel, verify: bool = False,
                      templates: bool = False) -> OperatorResult:
    """Compile and measure one fused operator under all four variants.

    Typed failures are contained per variant: a variant whose whole
    degradation ladder failed is simply absent from ``times`` and the
    operator is marked ``failed``; a variant produced by a lower ladder
    rung marks it ``degraded``.

    With ``verify`` the differential oracle (:mod:`repro.verify.oracle`)
    runs after the variant loop against the pipeline's cached compiles;
    any finding lands in :attr:`OperatorResult.verify_problems` and marks
    the operator ``failed`` — a measurement whose semantics drifted from
    the baseline is worse than one that never compiled.

    With ``templates`` the operator is additionally compiled under its
    class's TVM-style template baseline
    (:mod:`repro.workloads.templates`); the measurement rides in
    ``times["template"]`` / ``launches["template"]`` next to the variants
    (a template failure only drops the column, never the operator).
    """
    times: dict[str, float] = {}
    launches: dict[str, int] = {}
    signatures: dict[str, str] = {}
    stats: dict[str, list] = {}
    hashes: dict[str, str] = {}
    degradation: dict[str, str] = {}
    errors: list[str] = []
    vectorized = False
    for variant in VARIANTS:
        try:
            compiled = pipeline.compile(kernel, variant)
        except ReproError as exc:
            errors.append(f"{variant}: {type(exc).__name__}: {exc}")
            pipeline.context.count("resilience.variant_failures")
            logger.warning("operator %s variant %s failed: %s",
                           name, variant, exc)
            continue
        timing = pipeline.measure(compiled)
        times[variant] = timing.time
        launches[variant] = compiled.n_launches
        signatures[variant] = compiled.signature()
        stats[variant] = compiled.scheduler_stats
        hashes[variant] = compiled.schedule_hash
        if compiled.degradation != "none":
            degradation[variant] = compiled.degradation
        if variant == "infl":
            vectorized = compiled.vectorized
    if templates:
        from repro.workloads.templates import template_measure
        try:
            # In the operator's scope, so its template launches count
            # in the same registry as its variant launches.
            with use_obs(pipeline.session.context.obs):
                template = template_measure(
                    kernel, op_class, arch=pipeline.arch,
                    sample_blocks=pipeline.sample_blocks,
                    max_threads=pipeline.max_threads)
        except ReproError as exc:
            pipeline.context.count("templates.failed")
            logger.warning("operator %s template baseline failed: %s",
                           name, exc)
        else:
            times["template"] = template.time
            launches["template"] = template.n_launches
    verify_problems: list[str] = []
    if verify and not errors:
        from repro.verify.oracle import differential_oracle
        verify_problems = differential_oracle(kernel, pipeline=pipeline)
    status = ("failed" if errors or verify_problems
              else ("degraded" if degradation else "ok"))
    return OperatorResult(
        name=name,
        op_class=op_class,
        times=times,
        influenced="isl" in signatures and "infl" in signatures
                   and signatures["isl"] != signatures["infl"],
        vectorized=vectorized,
        launches=launches,
        scheduler_stats=stats,
        status=status,
        degradation=degradation,
        error="; ".join(errors),
        verify_problems=verify_problems,
        schedule_hashes=hashes,
    )


# -- parallel workers --------------------------------------------------------

# Per-worker-process state: the suites are deterministic functions of
# (network, seed, limit), and one long-lived pipeline keeps the schedule
# cache warm across the operators a worker picks up.  Pipelines are keyed
# by the config's repr so configs that pass through one process never
# share a mismatched pipeline.
_WORKER_SUITES: dict[tuple, list] = {}
_WORKER_PIPELINES: dict[str, AkgPipeline] = {}


def _worker_suite(network: str, seed: int, limit: Optional[int]) -> list:
    key = (network, seed, limit)
    if key not in _WORKER_SUITES:
        _WORKER_SUITES[key] = generate_network_suite(network, seed=seed,
                                                     limit=limit)
    return _WORKER_SUITES[key]


def _evaluate_index(network: str, config: EvaluationConfig,
                    index: int) -> tuple:
    """Worker entry point: evaluate operator ``index`` of one network.

    Returns ``(index, OperatorResult, pass-metrics dict)``; the context is
    reset per operator so the caller can merge snapshots without
    double-counting."""
    pipeline_key = repr(config)
    if pipeline_key not in _WORKER_PIPELINES:
        _WORKER_PIPELINES[pipeline_key] = _make_pipeline(config)
    pipeline = _WORKER_PIPELINES[pipeline_key]
    pipeline.session.context = PassContext(trace=config.trace)
    op_class, kernel = _worker_suite(network, config.seed,
                                     config.limit_per_network)[index]
    result = evaluate_operator(pipeline, kernel.name, op_class, kernel,
                               verify=config.verify,
                               templates=config.templates)
    return index, result, pipeline.context.as_dict()


# -- entry points ------------------------------------------------------------


OnOperator = Callable[[str, int, OperatorResult], None]


def evaluate_network(network: str,
                     config: Optional[EvaluationConfig] = None,
                     on_operator: Optional[OnOperator] = None,
                     jobs: Optional[int] = None) -> NetworkResult:
    """Evaluate one Table I network's fused-operator suite.

    ``jobs`` overrides ``config.jobs``; with more than one job the suite is
    evaluated concurrently with results identical to the serial path.
    """
    config = config or EvaluationConfig()
    return evaluate_all(config, [network], on_operator, jobs=jobs)[network]


def evaluate_all(config: Optional[EvaluationConfig] = None,
                 networks: Optional[list[str]] = None,
                 on_operator: Optional[OnOperator] = None,
                 jobs: Optional[int] = None,
                 checkpoint=None,
                 resume: bool = False) -> dict[str, NetworkResult]:
    """Evaluate every network (the full Table II).

    With ``jobs > 1`` all operators of all requested networks share one
    fork pool, so small suites do not serialize behind large ones.
    Per-operator failures are contained in
    ``OperatorResult.status``; this function only raises for
    non-compilation errors (genuine bugs) and dead workers.

    ``on_operator(network, index, result)`` fires for every finished
    operator, restored ones included, as it finishes: a caller still
    holds them when a later operator raises.

    ``checkpoint`` (an :class:`~repro.eval.checkpoint.EvalCheckpoint`)
    durably records each operator as it completes; with ``resume`` the
    checkpoint is consulted first and already-completed operators are
    restored by content key instead of re-evaluated — the merged result
    is bitwise-identical to an uninterrupted run because both the
    operator result and its metric snapshot round-trip losslessly.
    """
    config = config or EvaluationConfig()
    n_jobs = config.jobs if jobs is None else jobs
    names = list(networks or NETWORKS)
    suites = {network: generate_network_suite(network, seed=config.seed,
                                              limit=config.limit_per_network)
              for network in names}
    slots: dict[str, list] = {network: [None] * len(suites[network])
                              for network in names}
    metric_dicts: dict[str, list] = {network: [] for network in names}

    restored: dict[tuple[str, int], tuple] = {}
    if checkpoint is not None and resume:
        kernels = {(network, index): kernel
                   for network in names
                   for index, (_, kernel) in enumerate(suites[network])}
        restored = checkpoint.restore_operators(kernels)
        for (network, index), (result, metrics) in sorted(restored.items()):
            slots[network][index] = result
            metric_dicts[network].append(metrics)
            if on_operator:
                on_operator(network, index, result)

    def on_complete(network: str, index: int, result, metrics: dict) -> None:
        slots[network][index] = result
        metric_dicts[network].append(metrics)
        if checkpoint is not None:
            _, kernel = suites[network][index]
            checkpoint.record_operator(network, index, kernel, result,
                                       metrics)
        if on_operator:
            on_operator(network, index, result)

    tasks = [(network, index)
             for network in names
             for index in range(len(suites[network]))
             if (network, index) not in restored]

    if tasks and n_jobs and n_jobs > 1:
        # Looked up at call time, so a patched module attribute is used.
        from repro.eval.supervisor import run_supervised
        # Forked workers inherit the suites built above instead of
        # regenerating every network they touch.
        seeded = {(network, config.seed, config.limit_per_network):
                  suites[network] for network in names}
        _WORKER_SUITES.update(seeded)
        try:
            run_supervised(tasks, config, n_jobs, on_complete)
        finally:
            for key in seeded:
                _WORKER_SUITES.pop(key, None)
    else:
        pipeline = _make_pipeline(config)
        for network, index in tasks:
            op_class, kernel = suites[network][index]
            # Reset the context per operator — the same discipline workers
            # follow — so checkpoints carry exact per-operator snapshots
            # and the merged totals match the parallel path bit for bit.
            pipeline.session.context = PassContext(trace=config.trace)
            result = evaluate_operator(pipeline, kernel.name, op_class,
                                       kernel, verify=config.verify,
                                       templates=config.templates)
            on_complete(network, index, result, pipeline.context.as_dict())

    out = {}
    for network in names:
        dicts = list(metric_dicts[network])
        if checkpoint is not None and checkpoint.counters:
            # Checkpoint bookkeeping is global to the run; attach it to
            # the first network only so merging all networks counts once.
            if network == names[0]:
                dicts.append({"counters": dict(checkpoint.counters)})
        out[network] = NetworkResult(network=network,
                                     operators=slots[network],
                                     metrics=merge_metric_dicts(dicts))
    return out
