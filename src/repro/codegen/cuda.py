"""The GPU mapping pass: assign loops to CUDA blocks and threads.

AKG-style strategy (Fig. 1(b), with the paper's modification that mapping
skips dimensions marked for vectorization):

* the mappable loops are the outermost chain of parallel, non-vector loops
  with parameter-only bounds;
* the innermost mappable loop maps to ``threadIdx.x`` (it is the one the
  non-linear optimizer arranged for coalescing); an oversized thread loop is
  strip-mined so the block size stays within the limit;
* remaining mappable loops map to ``blockIdx.x/y/z`` outermost-first; any
  extra loops stay sequential inside the thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.codegen.ast import Guard, Loop, Seq, StatementCall, substitute_var, walk
from repro.ir.kernel import Kernel
from repro.linalg.rational import frac
from repro.schedule.functions import Schedule
from repro.solver.problem import LinExpr, var


@dataclass
class MappedDim:
    """One loop mapped onto a CUDA launch dimension."""

    loop_var: str
    extent: int
    mapping: str  # "blockIdx.x", "threadIdx.x", ...


@dataclass
class MappedKernel:
    """A kernel after mapping: launch geometry + per-thread body."""

    kernel: Kernel
    schedule: Schedule
    ast: Seq
    grid: list[MappedDim] = field(default_factory=list)
    block: list[MappedDim] = field(default_factory=list)

    @property
    def n_blocks(self) -> int:
        n = 1
        for d in self.grid:
            n *= d.extent
        return n

    @property
    def n_threads_per_block(self) -> int:
        n = 1
        for d in self.block:
            n *= d.extent
        return n

    def rebound(self, kernel: Kernel) -> "MappedKernel":
        """This launch for the content-equal ``kernel``.

        The schedule and the AST (immutable after mapping) are shared, the
        launch dimensions are copied, and the content-keyed profile
        signature (:func:`repro.gpu.profile_cache.launch_signature`) is
        kept.  No simulator state comes along."""
        launch = MappedKernel(kernel=kernel, schedule=self.schedule,
                              ast=self.ast, grid=list(self.grid),
                              block=list(self.block))
        sig = getattr(self, "_profile_sig", None)
        if sig is not None:
            launch._profile_sig = sig
        return launch

    def emit_cuda(self) -> str:
        """Pseudo-CUDA rendering of the mapped kernel."""
        grid = " * ".join(f"{d.extent}" for d in self.grid) or "1"
        block = " * ".join(f"{d.extent}" for d in self.block) or "1"
        lines = [
            f"// {self.kernel.name}<<<dim3({grid}), dim3({block})>>>",
        ]
        for d in self.grid + self.block:
            lines.append(f"//   {d.loop_var} <- {d.mapping} (extent {d.extent})")
        lines.extend(self.ast.render())
        return "\n".join(lines)


def _constant_extent(loop: Loop, params: dict[str, int]) -> Optional[int]:
    env = {p: frac(v) for p, v in params.items()}
    try:
        lowers = [e.evaluate(env) for e in loop.lowers]
        uppers = [e.evaluate(env) for e in loop.uppers]
    except KeyError:
        return None
    lo = min(lowers) if loop.lower_is_min else max(lowers)
    hi = max(uppers) if loop.upper_is_max else min(uppers)
    return int(hi - lo) + 1


def _effective_lower(loop: Loop, params: dict[str, int]) -> int:
    """The loop's concrete first iteration value (mappable loops have
    parameter-only bounds, so this is a plain integer)."""
    env = {p: frac(v) for p, v in params.items()}
    lowers = [e.evaluate(env) for e in loop.lowers]
    return math.ceil(min(lowers) if loop.lower_is_min else max(lowers))


def _mappable_chain(ast: Seq, params: dict[str, int]) -> list[Loop]:
    """The outermost chain of parallel non-vector loops with constant
    extents, stopping at the first node that breaks the chain."""
    chain: list[Loop] = []
    node = ast
    while True:
        if isinstance(node, Seq):
            if len(node.children) != 1:
                break
            node = node.children[0]
            continue
        if isinstance(node, Loop) and node.parallel and not node.vector \
                and _constant_extent(node, params) is not None:
            chain.append(node)
            node = node.body
            continue
        break
    return chain


def _strip_mine_thread_loop(loop: Loop, extent: int, max_threads: int,
                            lower: int) -> tuple[Loop, Loop]:
    """Split an oversized thread loop into a block part and a thread part.

    Returns ``(outer, inner)``; the original loop object becomes the outer
    one so parent links stay valid.  Both parts are rebased at zero, so the
    original variable is rewritten to ``lower + threads*outer + inner`` —
    a schedule row can give the mapped loop a nonzero start, and dropping
    ``lower`` would shift every executed instance.
    """
    thread_extent = max_threads
    outer_extent = (extent + thread_extent - 1) // thread_extent
    outer_var = f"{loop.var}b"
    inner_var = f"{loop.var}t"
    replacement = (thread_extent * var(outer_var)) + var(inner_var) + lower

    inner = Loop(
        var=inner_var,
        lowers=[LinExpr(const=0)],
        uppers=[LinExpr(const=thread_extent - 1)],
        body=loop.body,
        schedule_dim=loop.schedule_dim,
        parallel=True,
    )
    substitute_var(inner.body, loop.var, replacement)
    if outer_extent * thread_extent != extent:
        # Guard the ragged tail.
        from repro.solver.problem import Constraint
        original_upper = LinExpr(const=lower + extent - 1)
        inner.body = Seq([Guard(
            conditions=[Constraint(replacement - original_upper, "<=")],
            body=inner.body)])
    loop.var = outer_var
    loop.lowers = [LinExpr(const=0)]
    loop.uppers = [LinExpr(const=outer_extent - 1)]
    loop.lower_is_min = False
    loop.upper_is_max = False
    loop.body = Seq([inner])
    return loop, inner


def _swap_loops(outer: Loop, inner: Loop) -> None:
    """Interchange two directly nested loops by swapping their metadata.

    Legal only within a permutable band when neither loop's bounds mention
    the other's variable (checked by the caller)."""
    for attr in ("var", "lowers", "uppers", "lower_is_min", "upper_is_max",
                 "schedule_dim", "parallel", "vector", "vector_width",
                 "mapping"):
        a = getattr(outer, attr)
        b = getattr(inner, attr)
        setattr(outer, attr, b)
        setattr(inner, attr, a)


def hoist_coincident_loops(ast: Seq, schedule: Schedule) -> None:
    """Move coincident loops outward past sequential ones in the same
    permutable band (PPCG-style band-member reordering before mapping).

    A coincident dimension has zero reuse distance on every dependence
    active in its band, so its position within the band does not affect
    validity, and hoisting it exposes it to block/thread mapping.
    """
    def bounds_mention(loop: Loop, name: str) -> bool:
        return any(name in e.coeffs for e in loop.lowers + loop.uppers)

    changed = True
    while changed:
        changed = False
        for node in walk(ast):
            if not isinstance(node, Loop):
                continue
            body = node.body
            if len(body.children) != 1 or not isinstance(body.children[0], Loop):
                continue
            outer, inner = node, body.children[0]
            if outer.schedule_dim < 0 or inner.schedule_dim < 0:
                continue
            outer_info = schedule.dims[outer.schedule_dim]
            inner_info = schedule.dims[inner.schedule_dim]
            if outer_info.band != inner_info.band:
                continue
            if inner_info.coincident and not outer_info.coincident \
                    and not inner.vector \
                    and not bounds_mention(inner, outer.var) \
                    and not bounds_mention(outer, inner.var):
                _swap_loops(outer, inner)
                changed = True


def map_to_gpu(kernel: Kernel, ast: Seq, schedule: Schedule,
               max_threads: int = 256, max_grid_dims: int = 3) -> MappedKernel:
    """Run the mapping pass; annotates loops and returns the launch shape."""
    mapped = MappedKernel(kernel=kernel, schedule=schedule, ast=ast)
    hoist_coincident_loops(ast, schedule)
    chain = _mappable_chain(ast, kernel.params)
    if not chain:
        return mapped  # degenerate: single-thread kernel

    thread_loop = chain[-1]
    block_loops = chain[:-1]
    extent = _constant_extent(thread_loop, kernel.params)
    if extent > max_threads:
        outer, inner = _strip_mine_thread_loop(
            thread_loop, extent, max_threads,
            _effective_lower(thread_loop, kernel.params))
        outer.mapping = "blockIdx.x"
        mapped.grid.append(MappedDim(outer.var,
                                     _constant_extent(outer, kernel.params),
                                     "blockIdx.x"))
        inner.mapping = "threadIdx.x"
        mapped.block.append(MappedDim(inner.var, max_threads, "threadIdx.x"))
    else:
        thread_loop.mapping = "threadIdx.x"
        mapped.block.append(MappedDim(thread_loop.var, extent, "threadIdx.x"))

    axes = ["blockIdx.y", "blockIdx.z"] if mapped.grid else \
        ["blockIdx.x", "blockIdx.y", "blockIdx.z"]
    # Innermost block loops get the fastest-scheduled axes (blockIdx.x
    # varies first on real GPUs), so neighbouring blocks stay close in
    # memory; `mapped.grid` is kept fastest-axis-first for the simulator's
    # block-id decomposition.
    for loop in reversed(block_loops):
        if not axes:
            break  # extra parallel loops stay sequential per thread
        axis = axes.pop(0)
        loop.mapping = axis
        mapped.grid.append(MappedDim(loop.var,
                                     _constant_extent(loop, kernel.params),
                                     axis))
    return mapped
