"""GPU architecture parameters.

``V100`` approximates the paper's testbed (Tesla V100 PCIe, CUDA 10.1).
Only ratios matter for the reproduction; the constants are nevertheless
chosen close to the real part so the time scale is plausible.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GpuArch:
    """Parameters of the execution model."""

    name: str
    sm_count: int
    clock_hz: float
    warp_size: int
    dram_bandwidth: float        # bytes / second
    sector_bytes: int            # memory transaction granularity
    l1_bytes: int                # per-SM sector cache capacity
    l2_bytes: int                # shared sector cache capacity
    max_threads_per_block: int
    launch_overhead_s: float     # per kernel launch
    min_kernel_s: float          # latency floor for any launch
    mem_instr_cycles: int        # base cycles per warp load/store instruction
    arith_instr_cycles: int      # cycles per warp arithmetic instruction
    sectors_per_cycle: int = 4   # L1 wavefronts: sectors processed per cycle


V100 = GpuArch(
    name="V100-PCIe-16GB",
    sm_count=80,
    clock_hz=1.245e9,            # paper: clocked @ 1245 MHz
    warp_size=32,
    dram_bandwidth=900e9,
    sector_bytes=32,
    l1_bytes=128 * 1024,
    l2_bytes=6 * 1024 * 1024,
    max_threads_per_block=1024,
    launch_overhead_s=4e-6,
    min_kernel_s=2e-6,
    mem_instr_cycles=4,
    arith_instr_cycles=1,
)

# A newer data-center part: more SMs, much more bandwidth and L2.  Useful
# for sensitivity studies — bandwidth-rich devices shrink the coalescing
# gaps but keep the instruction-count wins of vector types.
A100 = GpuArch(
    name="A100-SXM4-40GB",
    sm_count=108,
    clock_hz=1.41e9,
    warp_size=32,
    dram_bandwidth=1555e9,
    sector_bytes=32,
    l1_bytes=192 * 1024,
    l2_bytes=40 * 1024 * 1024,
    max_threads_per_block=1024,
    launch_overhead_s=4e-6,
    min_kernel_s=2e-6,
    mem_instr_cycles=4,
    arith_instr_cycles=1,
)

# An edge-class part (MindSpore's "from edge to cloud" motivation): few
# SMs, narrow memory bus, small caches — layout quality matters even more.
EDGE = GpuArch(
    name="edge-soc-gpu",
    sm_count=8,
    clock_hz=1.0e9,
    warp_size=32,
    dram_bandwidth=60e9,
    sector_bytes=32,
    l1_bytes=64 * 1024,
    l2_bytes=1 * 1024 * 1024,
    max_threads_per_block=512,
    launch_overhead_s=8e-6,
    min_kernel_s=4e-6,
    mem_instr_cycles=4,
    arith_instr_cycles=1,
)

ARCHITECTURES: dict[str, GpuArch] = {
    arch.name: arch for arch in (V100, A100, EDGE)
}
