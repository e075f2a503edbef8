"""Content-keyed deduplication of simulated kernel profiles.

Structurally identical mapped kernels are simulated again and again: the
``novec`` and ``infl`` variants coincide whenever vectorization does not
fire, the ``tvm`` variant's single-statement clusters reproduce the whole
kernel for unfused operators, degradation rungs re-lower to the baseline
mapping, and the differential oracle re-measures every launch the variant
loop already measured.  This cache keys :func:`repro.gpu.simulate_kernel`
on the mapped kernel's *content* — the kernel IR signature (names
erased), the rendered loop AST, the launch geometry — plus the
architecture and the sampling width, so renamed-but-identical launches
hit.

The cache is ambient: the evaluation runner installs one per *operator
evaluation* (all four variants of one operator share it), and
``simulate_kernel`` consults it via :func:`get_profile_cache`.  The scope
is never wider than one operator: each operator is evaluated wholly inside
one process in both serial and parallel evaluation, so the
``sim.profile_cache.*`` metric streams stay identical between the two.

A replayed profile is bitwise-identical to simulating by construction —
the simulator is a deterministic pure function of the key's content.
Only the profile's ``name`` is rewritten to the requesting kernel's name
(kernel names are erased from the key, exactly as in
:func:`repro.ir.signature.kernel_signature`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from repro.ir.signature import kernel_signature
from repro.memo import Memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.cuda import MappedKernel
    from repro.gpu.arch import GpuArch

#: Entries kept per cache (LRU).  A single operator evaluation stays well
#: under this; the bound only guards against pathological workloads.
MAX_ENTRIES = 1024


def profile_cache_key(mapped: "MappedKernel", arch: "GpuArch",
                      sample_blocks: int) -> tuple:
    """The content key of one simulation request.

    Everything the simulator's counters depend on enters the key: the
    kernel IR signature (parameters, statement structure, accesses with
    tensor shapes/dtypes — kernel names excluded), the rendered loop AST
    (bounds, guards, mapping annotations, per-call iterator
    reconstructions), the grid/block geometry, the architecture model and
    the block-sampling width.  The mapped-kernel part is memoized on the
    (immutable-after-mapping) ``MappedKernel`` so the AST renders once.
    """
    sig = getattr(mapped, "_profile_sig", None)
    if sig is None:
        sig = (kernel_signature(mapped.kernel),
               "\n".join(mapped.ast.render()),
               tuple((d.loop_var, d.extent, d.mapping) for d in mapped.grid),
               tuple((d.loop_var, d.extent, d.mapping) for d in mapped.block))
        mapped._profile_sig = sig
    return (sig, arch, sample_blocks)


class ProfileCache(Memo):
    """Simulated :class:`KernelProfile`\\ s keyed on content, on a
    :class:`~repro.memo.Memo` named ``sim.profile_cache``."""

    __slots__ = ()

    def __init__(self, max_entries: int = MAX_ENTRIES):
        super().__init__("sim.profile_cache", max_entries)


_current: Optional[ProfileCache] = None


def get_profile_cache() -> Optional[ProfileCache]:
    """The ambient profile cache, or ``None`` when dedup is off."""
    return _current


@contextmanager
def use_profile_cache(cache: Optional[ProfileCache]) -> Iterator[
        Optional[ProfileCache]]:
    """Install ``cache`` as the ambient profile cache for the dynamic
    extent."""
    global _current
    previous = _current
    _current = cache
    try:
        yield cache
    finally:
        _current = previous
