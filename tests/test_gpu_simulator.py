"""Tests for the warp-level kernel simulator."""

import pytest

from repro.codegen import generate_ast, map_to_gpu, vectorize
from repro.gpu import V100, simulate_kernel
from repro.gpu.arch import GpuArch
from repro.gpu.simulator import _sample_block_ids, _Simulator
from repro.influence import build_influence_tree
from repro.ir import Kernel
from repro.ir.examples import elementwise_chain
from repro.schedule import InfluencedScheduler
from repro.workloads import operators


def compile_mapped(kernel, influenced=False, enable_vec=True,
                   max_threads=64):
    scheduler = InfluencedScheduler(kernel)
    tree = build_influence_tree(kernel) if influenced else None
    schedule = scheduler.schedule(tree)
    ast = generate_ast(kernel, schedule)
    ast = vectorize(ast, kernel, schedule, scheduler.relations,
                    enable=enable_vec)
    return map_to_gpu(kernel, ast, schedule, max_threads=max_threads)


def copy_kernel(rows=256, cols=64):
    k = Kernel("copy", params={"M": rows, "N": cols})
    k.add_tensor("A", (rows, cols))
    k.add_tensor("B", (rows, cols))
    k.add_statement("S", [("i", 0, "M"), ("j", 0, "N")],
                    writes=[("B", ["i", "j"])], reads=[("A", ["i", "j"])])
    return k


class TestSampling:
    def test_small_grid_full(self):
        ids, warmup = _sample_block_ids(3, 8)
        assert ids == [0, 1, 2] and warmup == 0

    def test_consecutive_run(self):
        ids, warmup = _sample_block_ids(1000, 4)
        assert warmup == 1
        assert len(ids) == 5
        assert ids == list(range(ids[0], ids[0] + 5))

    def test_window_l2_share_capped_at_physical_l2(self):
        """A sampled window longer than the resident blocks owns no more
        than the whole L2."""
        mapped = compile_mapped(copy_kernel(1024, 64))
        assert mapped.n_blocks >= 1024
        sim = _Simulator(mapped, V100, sampled_blocks=513)
        l2 = sim.memory.l2
        assert l2.capacity_sectors * l2.sector_bytes <= V100.l2_bytes


class TestCopyKernel:
    def test_exact_traffic(self):
        """A coalesced 2D copy moves exactly 2 tensors' worth of bytes."""
        mapped = compile_mapped(copy_kernel(256, 64))
        profile = simulate_kernel(mapped, sample_blocks=4)
        ideal = 2 * 256 * 64 * 4
        assert ideal * 0.9 <= profile.dram_bytes <= ideal * 1.2

    def test_coalescing_efficiency_near_one(self):
        mapped = compile_mapped(copy_kernel(256, 64))
        profile = simulate_kernel(mapped, sample_blocks=4)
        assert profile.coalescing_efficiency > 0.8

    def test_vectorized_fewer_instructions(self):
        # Wide rows keep both versions at full warps, exposing the 4x.
        plain = simulate_kernel(compile_mapped(copy_kernel(64, 512),
                                               influenced=True,
                                               enable_vec=False),
                                sample_blocks=4)
        vec = simulate_kernel(compile_mapped(copy_kernel(64, 512),
                                             influenced=True,
                                             enable_vec=True),
                              sample_blocks=4)
        assert vec.warp_mem_instructions < plain.warp_mem_instructions
        # Vector width 4: roughly 4x fewer memory instructions.
        assert vec.warp_mem_instructions <= plain.warp_mem_instructions / 3

    def test_same_traffic_with_vectors(self):
        plain = simulate_kernel(compile_mapped(copy_kernel(), influenced=True,
                                               enable_vec=False),
                                sample_blocks=4)
        vec = simulate_kernel(compile_mapped(copy_kernel(), influenced=True,
                                             enable_vec=True),
                              sample_blocks=4)
        assert abs(vec.dram_bytes - plain.dram_bytes) <= plain.dram_bytes * 0.2


class TestTimeModel:
    def test_time_includes_launch_overhead(self):
        mapped = compile_mapped(copy_kernel(64, 32))
        profile = simulate_kernel(mapped)
        assert profile.time >= V100.launch_overhead_s

    def test_dram_bound_scaling(self):
        small = simulate_kernel(compile_mapped(copy_kernel(256, 64)),
                                sample_blocks=4)
        big = simulate_kernel(compile_mapped(copy_kernel(1024, 64)),
                              sample_blocks=4)
        assert big.dram_bytes > small.dram_bytes * 3

    def test_underutilized_grid_slower_per_work(self):
        """A 1-block launch can use only one SM."""
        mapped = compile_mapped(copy_kernel(64, 64), max_threads=64)
        profile = simulate_kernel(mapped)
        assert profile.active_sms <= V100.sm_count


class TestAmplification:
    def test_layout_conversion_amplifies_baseline(self):
        """The NCHW->NHWC baseline pays write amplification; the influenced
        schedule does not (the core Table II mechanism)."""
        k = operators.layout_conversion_op("conv", 2, 64, 64, 64)
        isl = simulate_kernel(compile_mapped(k, influenced=False),
                              sample_blocks=8)
        infl = simulate_kernel(compile_mapped(k, influenced=True),
                               sample_blocks=8)
        assert isl.dram_bytes > infl.dram_bytes * 1.5

    def test_reduction_accumulator_combines(self):
        """A fused reduction's accumulator must not multiply DRAM traffic
        (write-back combining in L1)."""
        k = operators.reduce_producer_op("red", rows=2048, red=16)
        infl = simulate_kernel(compile_mapped(k, influenced=True),
                               sample_blocks=4)
        # Ideal: A+B (2048x16x4 each) + C + D -> ~0.5MB; amplified
        # accumulator traffic would be 16x larger.
        assert infl.dram_bytes < 3 * (2 * 2048 * 16 * 4 + 2048 * 4 +
                                      2048 * 16 * 4)


class TestProfileDerived:
    def test_flops_counted(self):
        mapped = compile_mapped(copy_kernel(64, 32))
        profile = simulate_kernel(mapped)
        assert profile.flops > 0

    def test_cache_counters(self):
        k = operators.reduce_producer_op("red", rows=512, red=16)
        profile = simulate_kernel(compile_mapped(k, influenced=True),
                                  sample_blocks=2)
        assert profile.cache_hits > 0  # accumulator + B reuse
