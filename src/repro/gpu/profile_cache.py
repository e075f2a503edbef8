"""Content-keyed deduplication of simulated kernel profiles.

Structurally identical mapped kernels are simulated again and again: the
``novec`` and ``infl`` variants coincide whenever vectorization does not
fire, the ``tvm`` variant's single-statement clusters reproduce the whole
kernel for unfused operators, degradation rungs re-lower to the baseline
mapping, the differential oracle re-measures every launch the variant
loop already measured, and Table II networks repeat layer shapes across
operators.  :data:`PROFILE_MEMO` keys
:func:`repro.gpu.simulate_kernel` on the mapped kernel's *content* — the
kernel IR signature (names erased), the loop AST rendered with loop
variables named by binding position, the launch geometry — plus the
architecture and the sampling width, so renamed-but-identical launches
hit.

The memo is process-wide, like the dependence, emptiness, Farkas block
and ILP memos (DESIGN.md "Caches"), and ``simulate_kernel`` consults it
on every request.  Its ``sim.profile_cache.*`` counters therefore depend
on what the process simulated before.  The ``sim.fastpath.*`` counters
do not: each entry keeps the fast-path counters its simulation counted,
and a hit counts them again, as if the launch had been simulated.

A replayed profile is bitwise-identical to simulating by construction —
the simulator is a deterministic pure function of the key's content.
Only the profile's ``name`` is rewritten to the requesting kernel's name
(kernel names are erased from the key, exactly as in
:func:`repro.ir.signature.kernel_signature`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.codegen.ast import Loop, walk
from repro.ir.signature import kernel_signature
from repro.memo import Memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.cuda import MappedKernel
    from repro.gpu.arch import GpuArch

#: Entries kept (LRU).  A whole Table II run stays well under this (a
#: serial ``repro table2 --limit 0`` process peaks at 303 entries, with no
#: evictions); the bound only guards against pathological workloads.
MAX_ENTRIES = 4096


def _loop_names(ast) -> dict[str, str]:
    """Each loop variable's name by its binding position: the ``k``-th
    distinct variable a preorder walk finds bound becomes ``%k`` (a name
    no parameter, iterator or tensor can have)."""
    names: dict[str, str] = {}
    for node in walk(ast):
        if isinstance(node, Loop) and node.var not in names:
            names[node.var] = f"%{len(names)}"
    return names


def launch_signature(mapped: "MappedKernel") -> tuple:
    """The mapped-kernel part of :func:`profile_cache_key`, memoized on the
    (immutable-after-mapping) ``MappedKernel`` so the AST renders once.

    Loop variables enter by binding position (:func:`_loop_names`), so
    launches that differ only in loop-variable names share a key: the
    simulator reads a loop variable only through the loop that binds it
    and the expressions that use it.  Statement and tensor names stay (a
    tensor's name decides its base address).
    """
    sig = getattr(mapped, "_profile_sig", None)
    if sig is None:
        names = _loop_names(mapped.ast)
        sig = (kernel_signature(mapped.kernel),
               "\n".join(mapped.ast.render(names=names)),
               tuple((names.get(d.loop_var, d.loop_var), d.extent, d.mapping)
                     for d in mapped.grid),
               tuple((names.get(d.loop_var, d.loop_var), d.extent, d.mapping)
                     for d in mapped.block))
        mapped._profile_sig = sig
    return sig


def profile_cache_key(mapped: "MappedKernel", arch: "GpuArch",
                      sample_blocks: int) -> tuple:
    """The content key of one simulation request.

    Everything the simulator's counters depend on enters the key: the
    kernel IR signature (parameters, statement structure, accesses with
    tensor shapes/dtypes — kernel names excluded), the rendered loop AST
    (bounds, guards, mapping annotations, per-call iterator
    reconstructions; see :func:`launch_signature`), the grid/block
    geometry, the architecture model and the block-sampling width.
    """
    return (launch_signature(mapped), arch, sample_blocks)


#: ``(KernelProfile, sim.fastpath counters)`` by :func:`profile_cache_key`.
PROFILE_MEMO = Memo("sim.profile_cache", MAX_ENTRIES)
