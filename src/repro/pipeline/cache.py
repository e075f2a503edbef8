"""Content-keyed schedule cache.

The pipeline used to memoize schedules per :class:`~repro.ir.kernel.Kernel`
*object* (a ``weakref`` identity cache), so a regenerated-but-identical
kernel — the common case for repeated suite runs, the ``novec``/``infl``
pair, and the tile autotuner's candidates — recompiled from scratch.  This
module replaces that with a cache keyed on kernel *content*: a canonical
signature of the IR (parameters, statement structure, iteration domains,
accesses with tensor shapes and dtypes) combined with the variant-relevant
compilation inputs (influence on/off, scheduler options, cost weights).

The cached entry is the expensive front end of the stage chain:
dependence relations, the finished :class:`Schedule`, and the scheduler's
counters.  Schedules index their rows by statement *name*, and statement
names/structure are part of the key, so an entry built from one kernel
object is valid for every content-equal kernel.

An entry also keeps the finished launch of each back-end setting it was
compiled under (code generation, vectorization, tiling and GPU mapping are
pure functions of the schedule and the kernel's content), keyed by
``(enable_vec, tile_sizes, max_threads)``.  A stored launch holds no
simulator state; the session hands out copies rebound to the requesting
kernel (:meth:`~repro.codegen.cuda.MappedKernel.rebound`).

Kernel names are deliberately excluded from the key (generated operators
carry unique names; distributed baselines suffix ``_k0`` per cluster).

Constraint order inside iteration domains is kept (not sorted away): the
ILP's variable/constraint layout follows it, and two kernels must only
share an entry when the whole solve is bit-for-bit identical.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Optional

from repro.influence.scenarios import CostWeights
from repro.ir.kernel import Kernel
from repro.ir.signature import kernel_signature
from repro.memo import Memo
from repro.schedule.scheduler import SchedulerOptions, SchedulerStats

__all__ = ["ScheduleCache", "ScheduleCacheEntry", "kernel_signature"]


@dataclass
class ScheduleCacheEntry:
    """The cached front end of a compilation, plus the launches built
    from it: ``(MappedKernel, tiled loop count)`` by back-end key (see
    :meth:`CompilationSession.run
    <repro.pipeline.passes.CompilationSession.run>`)."""

    relations: list
    schedule: object
    stats: Optional[SchedulerStats]
    launches: dict = field(default_factory=dict)


class ScheduleCache(Memo):
    """Front-end results keyed by kernel content, on a :class:`Memo`
    named ``cache`` (so it counts ``cache.{hits,misses,evictions}``)."""

    def __init__(self, max_entries: int = 4096):
        super().__init__("cache", max_entries)

    def key_for(self, kernel: Kernel, *, influence: bool,
                options: SchedulerOptions,
                weights: CostWeights) -> tuple:
        """The full cache key: content signature + compilation inputs.

        ``weights`` only shape the influence tree, but they stay in the key
        unconditionally — one key recipe, no influence-dependent holes."""
        return (kernel_signature(kernel), bool(influence),
                astuple(options), astuple(weights))

    def store(self, key: tuple, *, relations, schedule,
              stats: Optional[SchedulerStats] = None) -> ScheduleCacheEntry:
        entry = ScheduleCacheEntry(relations=relations, schedule=schedule,
                                   stats=stats)
        self.put(key, entry)
        return entry
