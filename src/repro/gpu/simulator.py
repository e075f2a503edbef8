"""Warp-level kernel execution model.

``simulate_kernel`` interprets a :class:`~repro.codegen.cuda.MappedKernel`
for a sample of its blocks, executing every warp in lockstep with per-lane
active masks, counting warp instructions and memory transactions through the
sector cache, then extrapolates to the full launch and converts the counters
into a time estimate:

    time = launch_overhead + max(issue_time, dram_time, latency_floor)

* ``issue_time``: warp-instruction cycles (with transaction replays for
  uncoalesced accesses) spread over the SMs the launch can occupy;
* ``dram_time``: DRAM sectors moved at the device bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from repro.codegen.ast import Guard, Loop, Seq, StatementCall, statements_in
from repro.codegen.cuda import MappedKernel
from repro.gpu.arch import GpuArch, V100
from repro.gpu.memory import MemoryHierarchy, warp_access
from repro.gpu.profile_cache import (
    get_profile_cache,
    is_miss,
    profile_cache_key,
)
from repro.obs.metrics import RATIO_BUCKETS
from repro.obs.runtime import get_obs
from repro.solver.problem import Constraint, LinExpr


@dataclass
class KernelProfile:
    """Measured counters and derived time for one kernel launch."""

    name: str
    arch: GpuArch
    n_blocks: int
    n_threads_per_block: int
    warp_mem_instructions: float = 0.0
    warp_arith_instructions: float = 0.0
    issue_cycles: float = 0.0
    dram_transactions: float = 0.0
    sectors_touched: float = 0.0
    bytes_requested: float = 0.0
    flops: float = 0.0
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    scalar_issues: float = 0.0   # statement issues from scalar code
    vector_issues: float = 0.0   # statement issues from vectorized loops

    @property
    def dram_bytes(self) -> float:
        return self.dram_transactions * self.arch.sector_bytes

    @property
    def active_sms(self) -> int:
        return max(1, min(self.n_blocks, self.arch.sm_count))

    @property
    def issue_time(self) -> float:
        return self.issue_cycles / (self.active_sms * self.arch.clock_hz)

    @property
    def dram_time(self) -> float:
        return self.dram_bytes / self.arch.dram_bandwidth

    @property
    def time(self) -> float:
        busy = max(self.issue_time, self.dram_time, self.arch.min_kernel_s)
        return self.arch.launch_overhead_s + busy

    @property
    def coalescing_efficiency(self) -> float:
        """Useful bytes per DRAM byte moved (1.0 == perfectly coalesced)."""
        if self.dram_bytes == 0:
            return 1.0
        return min(1.0, self.bytes_requested / self.dram_bytes)

    def counters(self) -> dict:
        """The full counter set as a JSON-safe dict (span attributes and
        the ``repro profile`` per-kernel table both render this)."""
        return {
            "n_blocks": self.n_blocks,
            "n_threads_per_block": self.n_threads_per_block,
            "warp_mem_instructions": self.warp_mem_instructions,
            "warp_arith_instructions": self.warp_arith_instructions,
            "issue_cycles": self.issue_cycles,
            "dram_transactions": self.dram_transactions,
            "dram_bytes": self.dram_bytes,
            "sectors_touched": self.sectors_touched,
            "bytes_requested": self.bytes_requested,
            "flops": self.flops,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "scalar_issues": self.scalar_issues,
            "vector_issues": self.vector_issues,
            "coalescing_efficiency": self.coalescing_efficiency,
            "time_seconds": self.time,
        }


class _CompiledAccess:
    """An access lowered to an integer-affine address function."""

    __slots__ = ("is_write", "elem_bytes", "terms", "const", "strides",
                 "flops")

    def __init__(self, is_write: bool, elem_bytes: int,
                 terms: list[tuple[str, int]], const: int):
        self.is_write = is_write
        self.elem_bytes = elem_bytes
        self.terms = terms
        self.const = const
        # Address coefficients by variable: `stride_of` is on the vector
        # issue path (three lookups per vectorized access), so it must be
        # a dict probe, not a scan of `terms`.
        self.strides = dict(terms)

    def address(self, env: dict[str, int]) -> int:
        total = self.const
        for name, coeff in self.terms:
            total += coeff * env[name]
        return total

    def stride_of(self, name: str) -> int:
        return self.strides.get(name, 0)


class _CompiledExpr:
    """A LinExpr lowered for fast integer evaluation (rational-safe).

    Coefficients with denominator 1 are narrowed to ``int`` and split from
    the (rare) genuinely rational ones, so the common all-integral bound
    and guard expressions evaluate with pure machine-int arithmetic — no
    ``Fraction`` dispatch on the hot path.  ``is_integral`` lets callers
    skip ``ceil``/``floor`` entirely for such expressions.  Evaluation
    order (integer terms first, then rational ones) cannot change any
    value: the arithmetic is exact, so the sum is order-independent.
    """

    __slots__ = ("terms", "int_terms", "frac_terms", "const", "is_integral")

    def __init__(self, expr: LinExpr):
        def narrow(value: Fraction):
            return int(value) if value.denominator == 1 else value
        self.terms = [(name, narrow(coeff))
                      for name, coeff in expr.coeffs.items()]
        self.int_terms = [(n, c) for n, c in self.terms if type(c) is int]
        self.frac_terms = [(n, c) for n, c in self.terms if type(c) is not int]
        self.const = narrow(expr.const)
        self.is_integral = not self.frac_terms and type(self.const) is int

    def value(self, env: dict[str, int]) -> Fraction:
        total = self.const
        for name, coeff in self.int_terms:
            total += coeff * env[name]
        for name, coeff in self.frac_terms:
            total += coeff * env[name]
        return total


class _Simulator:
    def __init__(self, mapped: MappedKernel, arch: GpuArch,
                 sampled_blocks: int = 1):
        self.mapped = mapped
        self.arch = arch
        self.kernel = mapped.kernel
        self.params = {p: int(v) for p, v in self.kernel.params.items()}
        # The real L2 is shared by every concurrently resident block; a
        # sampled consecutive run only owns its proportional share.
        concurrent = max(1, min(mapped.n_blocks, 2 * arch.sm_count))
        effective_l2 = max(arch.sector_bytes * 64,
                           int(arch.l2_bytes * sampled_blocks / concurrent))
        self.memory = MemoryHierarchy(arch.l1_bytes, effective_l2,
                                      arch.sector_bytes)
        self.bases = self._assign_bases()
        self.access_cache: dict[int, list[_CompiledAccess]] = {}
        self.bound_cache: dict[int, tuple[list, list]] = {}
        self.cond_cache: dict[int, list] = {}
        # Raw counters for the sampled blocks.
        self.mem_instrs = 0
        self.arith_instrs = 0
        self.issue_cycles = 0
        self.transactions = 0
        self.sectors = 0
        self.bytes_req = 0
        self.flops = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.scalar_issues = 0
        self.vector_issues = 0

    def compulsory_bytes(self) -> int:
        """A lower bound on DRAM traffic: every pure-input tensor is read
        at least once and every written tensor is written back at least
        once (intermediates count only on the write side — they may live in
        cache until the final write-back).  Guards the block-sampling
        extrapolation against undercounting when the sampled window happens
        to sit entirely inside one cache-resident tile.  Assumes accesses
        cover their tensors (true for the operator zoo).

        The result is a pure function of the (immutable-after-mapping) AST,
        so it is memoized on the mapped kernel: every launch of the same
        mapping — one per simulate call — used to re-walk the whole AST."""
        cached = getattr(self.mapped, "_compulsory_bytes", None)
        if cached is not None:
            return cached
        read_tensors: set[str] = set()
        written_tensors: set[str] = set()
        sizes: dict[str, int] = {}
        for call in statements_in(self.mapped.ast):
            for access in call.statement.accesses:
                sizes[access.tensor.name] = access.tensor.n_bytes
                if access.is_write:
                    written_tensors.add(access.tensor.name)
                else:
                    read_tensors.add(access.tensor.name)
        pure_inputs = read_tensors - written_tensors
        total = (sum(sizes[t] for t in pure_inputs)
                 + sum(sizes[t] for t in written_tensors))
        self.mapped._compulsory_bytes = total
        return total

    def reset_counters(self) -> None:
        """Zero the extrapolated counters (cache contents are kept): used
        after the warmup block so compulsory misses of the unsimulated
        predecessors are not extrapolated to the whole launch."""
        self.mem_instrs = 0
        self.arith_instrs = 0
        self.issue_cycles = 0
        self.sectors = 0
        self.bytes_req = 0
        self.flops = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.scalar_issues = 0
        self.vector_issues = 0
        self.memory.dram_reads = 0
        self.memory.dram_writes = 0

    # -- setup -------------------------------------------------------------

    def _assign_bases(self) -> dict[str, int]:
        bases = {}
        offset = 0
        for call in statements_in(self.mapped.ast):
            for access in call.statement.accesses:
                tensor = access.tensor
                if tensor.name not in bases:
                    bases[tensor.name] = offset
                    offset += ((tensor.n_bytes + 255) // 256) * 256 + 256
        return bases

    def _compiled_accesses(self, call: StatementCall) -> list[_CompiledAccess]:
        cached = self.access_cache.get(id(call))
        if cached is not None:
            return cached
        out = []
        for access in call.statement.accesses:
            esize = access.tensor.dtype.size_bytes
            strides = access.tensor.strides()
            addr = LinExpr(const=self.bases[access.tensor.name])
            for d, subscript in enumerate(access.subscripts):
                # Compose subscript(iterators) with iterator reconstructions.
                composed = LinExpr(const=subscript.const)
                for it, coeff in subscript.coeffs.items():
                    composed = composed + coeff * call.iterator_exprs[it]
                addr = addr + (strides[d] * esize) * composed
            terms = []
            const = addr.const
            for name, coeff in addr.coeffs.items():
                if coeff.denominator != 1:
                    raise ValueError(f"non-integer address coefficient in "
                                     f"{call.statement.name}")
                if name in self.params:
                    const += coeff * self.params[name]
                else:
                    terms.append((name, int(coeff)))
            if const.denominator != 1:
                raise ValueError("non-integer address constant")
            out.append(_CompiledAccess(access.is_write, esize, terms,
                                       int(const)))
        self.access_cache[id(call)] = out
        return out

    def _compiled_bounds(self, loop: Loop):
        cached = self.bound_cache.get(id(loop))
        if cached is None:
            cached = ([_CompiledExpr(e) for e in loop.lowers],
                      [_CompiledExpr(e) for e in loop.uppers])
            self.bound_cache[id(loop)] = cached
        return cached

    def _compiled_conditions(self, guard: Guard):
        cached = self.cond_cache.get(id(guard))
        if cached is None:
            cached = [(c.sense, _CompiledExpr(c.expr)) for c in guard.conditions]
            self.cond_cache[id(guard)] = cached
        return cached

    # -- execution ------------------------------------------------------------

    def run_block(self, block_env: dict[str, int]) -> None:
        threads = self.mapped.n_threads_per_block
        warp = self.arch.warp_size
        block_dims = self.mapped.block
        for warp_start in range(0, threads, warp):
            lanes = []
            for lane in range(warp_start, min(warp_start + warp, threads)):
                env = dict(self.params)
                env.update(block_env)
                remaining = lane
                # First block dim is threadIdx.x (fastest varying).
                for dim in block_dims:
                    env[dim.loop_var] = remaining % dim.extent
                    remaining //= dim.extent
                lanes.append(env)
            mask = [True] * len(lanes)
            self._run(self.mapped.ast, lanes, mask)

    def _run(self, node, lanes, mask) -> None:
        if isinstance(node, Seq):
            for child in node.children:
                self._run(child, lanes, mask)
        elif isinstance(node, Guard):
            conditions = self._compiled_conditions(node)
            new_mask = list(mask)
            for i, env in enumerate(lanes):
                if not new_mask[i]:
                    continue
                for sense, expr in conditions:
                    value = expr.value(env)
                    ok = (value <= 0 if sense == "<="
                          else value >= 0 if sense == ">=" else value == 0)
                    if not ok:
                        new_mask[i] = False
                        break
            if any(new_mask):
                self._run(node.body, lanes, new_mask)
        elif isinstance(node, Loop):
            if node.mapping:
                # `run_block` assigned the *raw* thread/block index; the
                # loop variable's first iteration is its lower bound, so a
                # nonzero lower shifts every lane (mappable bounds are
                # parameter-only, hence identical across lanes).
                lower_exprs, _ = self._compiled_bounds(node)
                pick = min if node.lower_is_min else max
                for env in lanes:
                    lo = math.ceil(pick(e.value(env) for e in lower_exprs))
                    if lo:
                        env[node.var] += lo
                self._run(node.body, lanes, mask)
            elif node.vector:
                self._run_vector(node, lanes, mask)
            else:
                self._run_loop(node, lanes, mask)
        elif isinstance(node, StatementCall):
            self._issue_scalar(node, lanes, mask)
        else:
            raise TypeError(f"unknown AST node {node!r}")

    def _run_loop(self, loop: Loop, lanes, mask) -> None:
        lower_exprs, upper_exprs = self._compiled_bounds(loop)
        los, his = [], []
        overall_lo, overall_hi = None, None
        lo_pick = min if loop.lower_is_min else max
        hi_pick = max if loop.upper_is_max else min
        for i, env in enumerate(lanes):
            lo = math.ceil(lo_pick(e.value(env) for e in lower_exprs))
            hi = math.floor(hi_pick(e.value(env) for e in upper_exprs))
            los.append(lo)
            his.append(hi)
            if mask[i]:
                overall_lo = lo if overall_lo is None else min(overall_lo, lo)
                overall_hi = hi if overall_hi is None else max(overall_hi, hi)
        if overall_lo is None or overall_lo > overall_hi:
            return
        var = loop.var
        for value in range(overall_lo, overall_hi + 1):
            sub_mask = [m and los[i] <= value <= his[i]
                        for i, m in enumerate(mask)]
            if not any(sub_mask):
                continue
            for env in lanes:
                env[var] = value
            self._run(loop.body, lanes, sub_mask)
        for env in lanes:
            env.pop(var, None)

    def _run_vector(self, loop: Loop, lanes, mask) -> None:
        width = loop.vector_width
        var = loop.var
        for child in loop.body.children:
            if isinstance(child, StatementCall) and child.vector_width == width:
                for env in lanes:
                    env[var] = 0
                self._issue_vector(child, lanes, mask, var, width)
            else:
                for lane_value in range(width):
                    for env in lanes:
                        env[var] = lane_value
                    self._run(child, lanes, mask)
        for env in lanes:
            env.pop(var, None)

    # -- issue ------------------------------------------------------------------

    def _issue_scalar(self, call: StatementCall, lanes, mask) -> None:
        active = [env for env, m in zip(lanes, mask) if m]
        if not active:
            return
        self.scalar_issues += 1
        for access in self._compiled_accesses(call):
            ranges = [(access.address(env), access.elem_bytes)
                      for env in active]
            self._count(ranges, access.is_write)
        self.arith_instrs += call.statement.flops
        self.issue_cycles += call.statement.flops * self.arch.arith_instr_cycles
        self.flops += call.statement.flops * len(active)

    def _issue_vector(self, call: StatementCall, lanes, mask,
                      var: str, width: int) -> None:
        active = [env for env, m in zip(lanes, mask) if m]
        if not active:
            return
        self.vector_issues += 1
        for access in self._compiled_accesses(call):
            stride = access.stride_of(var)
            if stride == access.elem_bytes:
                # Contiguous along the vector dim: one vector access/lane.
                ranges = [(access.address(env), access.elem_bytes * width)
                          for env in active]
                self._count(ranges, access.is_write)
            elif stride == 0:
                # Invariant: a single scalar access serves all lanes' groups.
                ranges = [(access.address(env), access.elem_bytes)
                          for env in active]
                self._count(ranges, access.is_write)
            else:
                # Gather/scatter: one instruction per lane position.
                for offset in range(width):
                    ranges = [(access.address(env) + stride * offset,
                               access.elem_bytes) for env in active]
                    self._count(ranges, access.is_write)
        # Computation stays scalar: `width` iterations of flops.
        self.arith_instrs += call.statement.flops * width
        self.issue_cycles += (call.statement.flops * width
                              * self.arch.arith_instr_cycles)
        self.flops += call.statement.flops * width * len(active)

    def _count(self, ranges, is_write: bool) -> None:
        result = warp_access(self.memory, ranges, is_write)
        self.mem_instrs += 1
        replay_cycles = -(-result.sectors_touched // self.arch.sectors_per_cycle)
        self.issue_cycles += max(self.arch.mem_instr_cycles, replay_cycles)
        self.sectors += result.sectors_touched
        self.bytes_req += result.bytes_requested


def _sample_block_ids(n_blocks: int, sample: int) -> tuple[list[int], int]:
    """A *consecutive* run of blocks starting mid-grid, plus warmup count.

    GPUs schedule blocks roughly in blockIdx order, so neighbouring blocks
    run close in time and share the L2; sampling a consecutive run keeps
    that cross-block locality observable.  The first sampled block only
    pays compulsory misses that its (unsimulated) predecessors would have
    absorbed, so it is treated as cache warmup: executed, but excluded from
    the extrapolated counters.  Starting away from block 0 avoids edge
    effects.
    """
    if n_blocks <= sample:
        return list(range(n_blocks)), 0
    take = min(n_blocks, sample + 1)
    start = min(n_blocks - take, n_blocks // 3)
    return list(range(start, start + take)), 1


def _execute_kernel(mapped: MappedKernel, arch: GpuArch, sample_blocks: int,
                    sim_cls: type) -> tuple[KernelProfile, _Simulator]:
    """Run the block-sampling driver with ``sim_cls`` as the interpreter.

    The fast and reference interpreters share this loop — sampling, warmup
    exclusion, cache lifecycle, extrapolation and the compulsory-traffic
    floor do not depend on the interpreter; only warp execution differs.
    Returns the profile together with the simulator instance so callers can
    harvest its private counters (e.g. the fast path's memoization
    statistics).
    """
    n_blocks = mapped.n_blocks
    block_ids, warmup = _sample_block_ids(n_blocks, sample_blocks)
    sim = sim_cls(mapped, arch, sampled_blocks=max(1, len(block_ids)))
    for index, block_id in enumerate(block_ids):
        env: dict[str, int] = {}
        remaining = block_id
        for dim in mapped.grid:
            env[dim.loop_var] = remaining % dim.extent
            remaining //= dim.extent
        sim.run_block(env)
        sim.memory.end_block()
        sim.cache_hits += sim.memory.l1.hits + sim.memory.l2.hits
        sim.cache_misses += sim.memory.l1.misses + sim.memory.l2.misses
        sim.memory.l1.clear_stats()
        sim.memory.l2.clear_stats()
        if index + 1 == warmup:
            sim.reset_counters()
    sim.memory.end_kernel()
    sim.transactions = sim.memory.dram_transactions
    scale = n_blocks / max(1, len(block_ids) - warmup)
    floor_transactions = sim.compulsory_bytes() / arch.sector_bytes / scale
    profile = KernelProfile(
        name=mapped.kernel.name,
        arch=arch,
        n_blocks=n_blocks,
        n_threads_per_block=mapped.n_threads_per_block,
        warp_mem_instructions=sim.mem_instrs * scale,
        warp_arith_instructions=sim.arith_instrs * scale,
        issue_cycles=sim.issue_cycles * scale,
        dram_transactions=max(sim.transactions, floor_transactions) * scale,
        sectors_touched=sim.sectors * scale,
        bytes_requested=sim.bytes_req * scale,
        flops=sim.flops * scale,
        cache_hits=sim.cache_hits * scale,
        cache_misses=sim.cache_misses * scale,
        scalar_issues=sim.scalar_issues * scale,
        vector_issues=sim.vector_issues * scale,
    )
    return profile, sim


def simulate_reference(mapped: MappedKernel, arch: GpuArch = V100,
                       sample_blocks: int = 4) -> KernelProfile:
    """Simulate ``mapped`` on the lane-by-lane reference interpreter.

    The ground truth that the fast path's counters must equal bitwise.  It
    consults no profile cache and records no metrics: tests and benchmarks
    call it as an oracle, and the pipeline reaches it only through the fast
    path's fallback.
    """
    profile, _ = _execute_kernel(mapped, arch, sample_blocks, _Simulator)
    return profile


def _simulate(mapped: MappedKernel, arch: GpuArch,
              sample_blocks: int) -> KernelProfile:
    """One launch on the closed-form fast interpreter
    (:mod:`repro.gpu.fastpath`), harvesting its ``sim.fastpath.*`` counters.

    A launch using a construct the fast interpreter does not model (e.g. a
    lane-variant mapped-loop lower bound) raises ``FallbackNeeded`` and is
    re-run from scratch on the reference interpreter, so mid-launch cache
    state never mixes the two (counted as ``sim.fastpath.fallback``).
    """
    from repro.gpu.fastpath import FallbackNeeded, _FastSimulator
    metrics = get_obs().metrics
    try:
        profile, sim = _execute_kernel(mapped, arch, sample_blocks,
                                       _FastSimulator)
    except FallbackNeeded:
        if metrics.enabled:
            metrics.count("sim.fastpath.fallback")
        return simulate_reference(mapped, arch, sample_blocks)
    if metrics.enabled:
        if sim.analytic_builds:
            metrics.count("sim.fastpath.analytic", sim.analytic_builds)
        if sim.memo_hits:
            metrics.count("sim.fastpath.memo_hits", sim.memo_hits)
        if sim.pruned_iterations:
            metrics.count("sim.fastpath.pruned_iterations",
                          sim.pruned_iterations)
        if sim.collapsed_issues:
            metrics.count("sim.fastpath.collapsed_issues",
                          sim.collapsed_issues)
    return profile


def simulate_kernel(mapped: MappedKernel, arch: GpuArch = V100,
                    sample_blocks: int = 4) -> KernelProfile:
    """Simulate a mapped kernel and estimate its execution time.

    The fast interpreter produces counters bitwise-identical to
    :func:`simulate_reference`.  When an ambient
    :class:`~repro.gpu.profile_cache.ProfileCache`
    is installed, content-identical launches replay the cached profile
    instead of re-simulating (``sim.profile_cache.{hits,misses}``).

    Each run is wrapped in a ``gpu.kernel`` span carrying the full profile
    counter set, and the profile feeds the ambient ``gpu.*`` histograms
    (all derived from the deterministic model, so serial and parallel
    evaluations produce identical metric payloads).
    """
    obs = get_obs()
    cache = get_profile_cache()
    key = None
    profile: Optional[KernelProfile] = None
    if cache is not None:
        key = profile_cache_key(mapped, arch, sample_blocks)
        found = cache.lookup(key)
        if not is_miss(found):
            # Names are erased from the key; restore the caller's (the
            # `replace` also guarantees the cached entry is never aliased).
            profile = replace(found, name=mapped.kernel.name)
    cached = profile is not None
    with obs.span("gpu.kernel", kernel=mapped.kernel.name) as span:
        if profile is None:
            profile = _simulate(mapped, arch, sample_blocks)
            if cache is not None:
                cache.store(key, profile)
        span.set(**profile.counters())
    metrics = obs.metrics
    if metrics.enabled:
        metrics.count("gpu.kernels")
        metrics.count("gpu.dram_transactions", profile.dram_transactions)
        metrics.count("gpu.bytes_requested", profile.bytes_requested)
        metrics.count("gpu.scalar_issues", profile.scalar_issues)
        metrics.count("gpu.vector_issues", profile.vector_issues)
        metrics.observe("gpu.kernel_seconds", profile.time)
        metrics.observe("gpu.coalescing_efficiency",
                        profile.coalescing_efficiency, bounds=RATIO_BUCKETS)
        if cache is not None:
            metrics.count("sim.profile_cache.hits" if cached
                          else "sim.profile_cache.misses")
    return profile
