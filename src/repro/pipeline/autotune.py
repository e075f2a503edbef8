"""Tile-size auto-tuning on the GPU model.

The paper's evaluation notes "Tile sizes are selected by respective tool
auto-tuners"; this module provides that stage for our pipeline: it applies
band tiling between code generation and mapping, measures each candidate
on the execution model, and keeps the fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.gpu.arch import GpuArch, V100
from repro.gpu.simulator import simulate_kernel
from repro.ir.kernel import Kernel
from repro.pipeline.cache import ScheduleCache
from repro.pipeline.passes import (
    CompilationSession,
    GpuMappingPass,
    TilingPass,
    variant_passes,
)

DEFAULT_CANDIDATES: tuple[tuple[int, ...], ...] = (
    (),            # untiled baseline
    (8, 8), (16, 16), (32, 32), (64, 64),
    (8, 32), (32, 8), (16, 64), (64, 16),
)


@dataclass
class TileCandidateResult:
    """One measured tiling candidate."""

    tile_sizes: tuple[int, ...]
    tiled_loops: int
    time: float
    dram_bytes: float


@dataclass
class AutotuneResult:
    """Outcome of a tile-size search."""

    kernel_name: str
    best: TileCandidateResult
    candidates: list[TileCandidateResult] = field(default_factory=list)

    def speedup_over_untiled(self) -> float:
        untiled = next((c for c in self.candidates if not c.tiled_loops),
                       None)
        if untiled is None:
            return 1.0
        return untiled.time / self.best.time


def compile_tiled(kernel: Kernel, tile_sizes: Sequence[int],
                  influenced: bool = False, enable_vec: bool = False,
                  max_threads: int = 256,
                  session: Optional[CompilationSession] = None):
    """Compile one kernel with band tiling applied before mapping.

    A :class:`TilingPass` is spliced into the variant pass list just before
    GPU mapping.  Pass a shared ``session`` (as the autotuner does) so the
    content-keyed cache reuses one schedule across all tiling candidates —
    only codegen/tile/vectorize/map rerun per candidate.

    Returns ``(mapped_kernel, tiled_loop_count)``.
    """
    if session is None:
        session = CompilationSession(max_threads=max_threads,
                                     cache=ScheduleCache())
    passes = list(variant_passes(influence=influenced, enable_vec=enable_vec))
    mapping_index = next(i for i, p in enumerate(passes)
                         if isinstance(p, GpuMappingPass))
    passes.insert(mapping_index, TilingPass(tile_sizes))
    state = session.run(kernel, tuple(passes), variant="tiled")
    return state.mapped, state.tiled_loops


def autotune_tile_sizes(kernel: Kernel,
                        candidates: Sequence[Sequence[int]] = DEFAULT_CANDIDATES,
                        influenced: bool = False,
                        enable_vec: bool = False,
                        arch: GpuArch = V100,
                        sample_blocks: int = 8,
                        max_threads: int = 256) -> AutotuneResult:
    """Measure every tiling candidate and return the fastest."""
    session = CompilationSession(max_threads=max_threads,
                                 cache=ScheduleCache())
    results: list[TileCandidateResult] = []
    for sizes in candidates:
        mapped, tiled = compile_tiled(kernel, sizes,
                                      influenced=influenced,
                                      enable_vec=enable_vec,
                                      max_threads=max_threads,
                                      session=session)
        profile = simulate_kernel(mapped, arch=arch,
                                  sample_blocks=sample_blocks)
        results.append(TileCandidateResult(
            tile_sizes=tuple(sizes), tiled_loops=tiled,
            time=profile.time, dram_bytes=profile.dram_bytes))
    best = min(results, key=lambda r: r.time)
    return AutotuneResult(kernel_name=kernel.name, best=best,
                          candidates=results)
