"""Operator-family benchmarks: scheduler variants vs template baselines.

Each new operator family (depthwise conv, attention block, 2D stencils)
is compiled under the ``isl``/``tvm``/``infl`` variants and under its
TVM-style template (:mod:`repro.workloads.templates`), at production-ish
shapes.  It reports two things:

* per-family *compile* latency (wall clock) for each variant — the
  scheduler cost on dependence structures the older families never
  exercised (windowed reuse, reduce -> broadcast -> reduce chains, mixed
  iteration spaces);
* a simulated-execution artifact table comparing variant times against
  the family template, which is the per-family headline of
  EXPERIMENTS.md.
"""

import pytest
from conftest import write_artifact

from repro.ir.examples import heat_2d, jacobi_2d
from repro.pipeline import AkgPipeline
from repro.workloads.operators import attention_block_op, depthwise_conv_op
from repro.workloads.templates import template_measure

SAMPLE_BLOCKS = 8

# family -> (kernel factory, template op class).
FAMILIES = {
    "depthwise_conv": (lambda: depthwise_conv_op(
        "bench_fam_dw", channels=16, height=16, width=16, kernel_size=3),
        "depthwise_conv"),
    "attention_block": (lambda: attention_block_op(
        "bench_fam_attn", seq=32, dmodel=32), "attention_block"),
    "jacobi_2d": (lambda: jacobi_2d(64, name="bench_fam_jacobi"),
                  "stencil_2d"),
    "heat_2d": (lambda: heat_2d(64, name="bench_fam_heat"), "stencil_2d"),
}

BENCH_VARIANTS = ("isl", "tvm", "infl")

_KERNELS: dict = {}


def _kernel(family):
    if family not in _KERNELS:
        _KERNELS[family] = FAMILIES[family][0]()
    return _KERNELS[family]


@pytest.mark.parametrize("variant", BENCH_VARIANTS)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_bench_family_compile(benchmark, family, variant):
    """Wall-clock compile latency per family and variant."""
    kernel = _kernel(family)
    compiled = benchmark.pedantic(
        lambda: AkgPipeline(sample_blocks=SAMPLE_BLOCKS).compile(
            kernel, variant),
        rounds=3, iterations=1, warmup_rounds=1)
    assert compiled.n_launches >= 1
    assert compiled.degradation == "none"


def test_family_exec_vs_template():
    """Simulated execution time: variants against the family template.

    The artifact is the per-family comparison EXPERIMENTS.md quotes; the
    assertions only pin what must always hold (positive times, template
    launch count = statement count) — the variant/template ordering is an
    experimental result, not an invariant.
    """
    lines = [f"operator families: simulated execution vs template "
             f"(sample_blocks={SAMPLE_BLOCKS}):",
             f"  {'family':<17}{'isl us':>9}{'tvm us':>9}{'infl us':>9}"
             f"{'tmpl us':>9}{'infl/tmpl':>11}"]
    for family, (_, op_class) in FAMILIES.items():
        kernel = _kernel(family)
        pipeline = AkgPipeline(sample_blocks=SAMPLE_BLOCKS)
        times = {}
        for variant in BENCH_VARIANTS:
            timing = pipeline.compile_and_measure(kernel, variant)
            times[variant] = timing.time
            assert timing.time > 0
        template = template_measure(kernel, op_class,
                                    sample_blocks=SAMPLE_BLOCKS)
        assert template.time > 0
        assert template.n_launches == len(kernel.statements)
        ratio = times["infl"] / template.time
        lines.append(f"  {family:<17}{times['isl'] * 1e6:>9.1f}"
                     f"{times['tvm'] * 1e6:>9.1f}"
                     f"{times['infl'] * 1e6:>9.1f}"
                     f"{template.time * 1e6:>9.1f}{ratio:>10.2f}x")
    write_artifact("operator_families.txt", "\n".join(lines))
