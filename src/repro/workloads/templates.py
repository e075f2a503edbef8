"""TVM-style template-schedule baselines, one per operator class.

The scheduler variants (``isl``/``tvm``/``novec``/``infl``) all search for
a schedule; a *template* does not.  It encodes the fixed recipe a TVM-style
operator library would apply to the family: compile every statement as its
own launch, keep the statement's textual loop order, hoist the parallel
(non-reduction) loops outermost and bind them to blocks/threads, leave the
reduction loops sequential innermost.  This mirrors the ``schedule_injective``
/ reduce-schedule idiom (fuse → split → bind) without any dependence-driven
fusion or influence constraints, and gives evaluation a per-family baseline
column: how much does *scheduling* buy over the hand-template for this class?

Every class in :data:`~repro.workloads.generator.OPERATOR_CLASSES` must have
an entry in :data:`TEMPLATES` — enforced by
:func:`~repro.workloads.generator.validate_class_registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.cuda import MappedKernel, map_to_gpu
from repro.codegen.generate import generate_ast
from repro.codegen.vectorize import vectorize
from repro.deps.analysis import compute_dependences
from repro.gpu.arch import GpuArch, V100
from repro.gpu.simulator import KernelProfile, simulate_kernel
from repro.ir.kernel import Kernel
from repro.ir.statement import Statement
from repro.schedule.analysis import annotate_parallelism, verify_schedule
from repro.schedule.functions import DimensionInfo, Schedule, ScheduleRow

# Operator class -> template kind.  ``injective`` statements are fully
# parallel (elementwise / layout / stencil interiors); ``reduce_inner``
# families carry accumulator loops that the template keeps sequential
# innermost.  Both kinds share one mechanical recipe (parallel loops
# outermost, one launch per statement); the kind is the provenance label
# reported alongside the baseline measurement.
TEMPLATES: dict[str, str] = {
    "elementwise_neutral": "injective",
    "elementwise_vec": "injective",
    "broadcast": "injective",
    "reduce_producer": "reduce_inner",
    "layout_conversion": "injective",
    "layout_conversion_f16": "injective",
    "softmax_like": "reduce_inner",
    "strided_pool": "reduce_inner",
    "transpose2d": "injective",
    "depthwise_conv": "reduce_inner",
    "attention_block": "reduce_inner",
    "stencil_2d": "injective",
}


def template_kind(op_class: str) -> str:
    """The template label for ``op_class`` (``injective`` for unknowns)."""
    return TEMPLATES.get(op_class, "injective")


@dataclass
class TemplateResult:
    """One operator compiled and measured under its class template."""

    kernel: Kernel
    op_class: str
    kind: str
    launches: list[MappedKernel] = field(default_factory=list)
    profiles: list[KernelProfile] = field(default_factory=list)

    @property
    def time(self) -> float:
        return sum(p.time for p in self.profiles)

    @property
    def n_launches(self) -> int:
        return len(self.launches)


def _single_statement_kernel(kernel: Kernel, statement: Statement,
                             suffix: str) -> Kernel:
    """A kernel view over one statement (tensors and params shared)."""
    sub = Kernel(f"{kernel.name}{suffix}", params=dict(kernel.params))
    sub.tensors = dict(kernel.tensors)
    sub.statements = [statement]
    return sub


def _identity_schedule(statement: Statement, params: list[str],
                       order: list[str]) -> Schedule:
    """The schedule mapping iteration vectors to ``order``, one dim each."""
    schedule = Schedule([statement], params)
    for iterator in order:
        coeffs = [1 if name == iterator else 0
                  for name in statement.iterators]
        row = ScheduleRow.from_coeffs(statement, params, coeffs,
                                      [0] * len(params), 0)
        schedule.append_dimension({statement.name: row},
                                  DimensionInfo(band=0))
    return schedule


def _statement_schedule(sub: Kernel, statement: Statement):
    """The template schedule for one statement: textual order, then the
    parallel loops hoisted outermost (reduction loops stay innermost, the
    classic bind-outer/reduce-inner library shape).  The hoisted order is
    kept only when :func:`verify_schedule` proves it valid."""
    relations = compute_dependences(sub)
    natural = list(statement.iterators)
    schedule = _identity_schedule(statement, sub.parameter_names, natural)
    annotate_parallelism(schedule, relations)
    hoisted = ([it for it, d in zip(natural, schedule.dims) if d.parallel]
               + [it for it, d in zip(natural, schedule.dims)
                  if not d.parallel])
    if hoisted != natural:
        candidate = _identity_schedule(statement, sub.parameter_names,
                                       hoisted)
        annotate_parallelism(candidate, relations)
        if not verify_schedule(candidate, relations):
            schedule = candidate
    for info in schedule.dims:
        info.coincident = info.parallel
    return schedule, relations


def template_compile(kernel: Kernel, op_class: str = "",
                     max_threads: int = 256) -> list[MappedKernel]:
    """Compile ``kernel`` under its class template: one launch per
    statement, parallel-outer identity schedules, no vectorization."""
    launches = []
    for index, statement in enumerate(kernel.statements):
        sub = _single_statement_kernel(kernel, statement, f"_t{index}")
        schedule, relations = _statement_schedule(sub, statement)
        ast = generate_ast(sub, schedule)
        ast = vectorize(ast, sub, schedule, relations, enable=False)
        launches.append(map_to_gpu(sub, ast, schedule,
                                   max_threads=max_threads))
    return launches


def template_measure(kernel: Kernel, op_class: str = "",
                     arch: GpuArch = V100, sample_blocks: int = 8,
                     max_threads: int = 256) -> TemplateResult:
    """Compile and simulate ``kernel`` under its class template."""
    launches = template_compile(kernel, op_class, max_threads=max_threads)
    profiles = [simulate_kernel(launch, arch=arch,
                                sample_blocks=sample_blocks)
                for launch in launches]
    return TemplateResult(kernel=kernel, op_class=op_class,
                          kind=template_kind(op_class),
                          launches=launches, profiles=profiles)
