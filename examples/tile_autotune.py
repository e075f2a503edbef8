#!/usr/bin/env python
"""Tile-size auto-tuning on the GPU model.

The paper's evaluation relies on each tool's auto-tuner to pick tile sizes;
this example runs our model-driven tuner (band tiling between codegen and
mapping) on two operators and prints the candidate table.

It also demonstrates an instructive interaction with the paper's approach:
on a 4D layout conversion, tiling the *baseline* schedule recovers part of
the gap that constraint injection closes — two different remedies for the
same memory-system problem.

Run:  python examples/tile_autotune.py
"""

from repro.gpu import simulate_kernel
from repro.pipeline.autotune import autotune_tile_sizes, compile_tiled
from repro.workloads.operators import layout_conversion_op, transpose2d_op


def tune(kernel, influenced, label):
    print("=" * 72)
    print(label)
    print("=" * 72)
    result = autotune_tile_sizes(kernel, influenced=influenced,
                                 sample_blocks=4)
    for candidate in sorted(result.candidates, key=lambda c: c.time):
        sizes = "x".join(map(str, candidate.tile_sizes)) or "untiled"
        marker = "  <== best" if candidate is result.best else ""
        print(f"  tiles {sizes:>9s}: {candidate.time * 1e6:9.1f} us, "
              f"DRAM {candidate.dram_bytes / 1e6:8.2f} MB{marker}")
    print(f"  speedup over untiled: {result.speedup_over_untiled():.2f}x")
    print()
    return result


def main() -> None:
    transpose = transpose2d_op("transpose_512", rows=512, cols=512)
    tune(transpose, influenced=False, label="2D transpose, baseline schedule")

    conversion = layout_conversion_op("conv_tune", batch=2, channels=64,
                                      height=64, width=64)
    baseline = tune(conversion, influenced=False,
                    label="4D layout conversion, baseline schedule + tiling")

    # Compare against the untiled influenced compilation.
    mapped, _ = compile_tiled(conversion, (), influenced=True,
                              enable_vec=True)
    influenced_profile = simulate_kernel(mapped, sample_blocks=4)
    print("=" * 72)
    print("two remedies for the conversion's write amplification")
    print("=" * 72)
    untiled = next(c for c in baseline.candidates if c.tile_sizes == ())
    print(f"  baseline untiled : {untiled.time * 1e6:9.1f} us")
    print(f"  baseline + tiles : {baseline.best.time * 1e6:9.1f} us")
    print(f"  influenced (vec) : {influenced_profile.time * 1e6:9.1f} us")


if __name__ == "__main__":
    main()
