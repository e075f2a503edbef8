"""End-to-end compilation pipelines (the AKG stand-in of Fig. 1(b)).

:class:`~repro.pipeline.akg.AkgPipeline` compiles a fused operator under
the paper's four evaluation configurations:

* ``isl``   — the baseline: isl-0.22-style scheduling as observed through
  AKG (per-cluster scheduling with textual-order tie-breaks, no influence,
  no vector types; multi-space operators distribute into several kernel
  launches, reproducing Fig. 2(b));
* ``tvm``   — the TVM manual-template baseline: per-statement kernels, each
  with a stride-optimal manual loop order, no cross-operator fusion, no
  vector types;
* ``novec`` — influenced scheduling with the backend vectorization pass
  disabled;
* ``infl``  — the full approach: influence-tree scheduling + explicit
  load/store vector types.

Each variant runs the one stage chain of
:meth:`~repro.pipeline.passes.CompilationSession.run` (dependences,
influence tree, scheduling, code generation, vectorization, GPU mapping)
with influence and vectorization switched on or off.
"""

from repro.pipeline.akg import AkgPipeline, CompiledOperator, OperatorTiming, VARIANTS
from repro.pipeline.cache import ScheduleCache, kernel_signature
from repro.pipeline.passes import (
    CompilationSession,
    PassContext,
    format_pass_summary,
    merge_contexts,
    merge_metric_dicts,
)

__all__ = [
    "AkgPipeline",
    "CompiledOperator",
    "OperatorTiming",
    "VARIANTS",
    "ScheduleCache",
    "kernel_signature",
    "CompilationSession",
    "PassContext",
    "format_pass_summary",
    "merge_contexts",
    "merge_metric_dicts",
]
