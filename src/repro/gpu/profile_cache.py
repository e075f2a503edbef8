"""Content-keyed deduplication of simulated kernel profiles.

Structurally identical mapped kernels are simulated again and again: the
``novec`` and ``infl`` variants coincide whenever vectorization does not
fire, the ``tvm`` variant's single-statement clusters reproduce the whole
kernel for unfused operators, degradation rungs re-lower to the baseline
mapping, the differential oracle re-measures every launch the variant
loop already measured, and Table II networks repeat layer shapes across
operators.  :data:`PROFILE_MEMO` keys
:func:`repro.gpu.simulate_kernel` on the mapped kernel's *content* — the
kernel IR signature (names erased), the rendered loop AST, the launch
geometry — plus the architecture and the sampling width, so
renamed-but-identical launches hit.

The memo is process-wide, like the dependence, emptiness and Farkas block
memos (DESIGN.md "Caches"), and ``simulate_kernel`` consults it on every
request.  Its ``sim.profile_cache.*`` counters therefore depend on what
the process simulated before.  The ``sim.fastpath.*`` counters do not:
each entry keeps the fast-path counters its simulation counted, and a hit
counts them again, as if the launch had been simulated.

A replayed profile is bitwise-identical to simulating by construction —
the simulator is a deterministic pure function of the key's content.
Only the profile's ``name`` is rewritten to the requesting kernel's name
(kernel names are erased from the key, exactly as in
:func:`repro.ir.signature.kernel_signature`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.signature import kernel_signature
from repro.memo import Memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.cuda import MappedKernel
    from repro.gpu.arch import GpuArch

#: Entries kept (LRU).  A whole Table II run stays well under this (a
#: serial ``repro table2 --limit 0`` process peaks at 303 entries, with no
#: evictions); the bound only guards against pathological workloads.
MAX_ENTRIES = 4096


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


#: ``(KernelProfile, sim.fastpath counters)`` by :func:`profile_cache_key`.
PROFILE_MEMO = Memo("sim.profile_cache", MAX_ENTRIES)
