"""Operator families through the full pipeline, parametrized per family.

Each family with qualitatively new dependence structure — 1D/2D stencils
(shifted accesses), depthwise convolution (windowed reuse per channel) and
attention blocks (reduce -> broadcast -> reduce chains) — is checked for:

* dependence analysis finds the family's characteristic flow relations,
* the influenced scheduler produces a verifiably valid schedule,
* every pipeline variant compiles to a semantics-preserving AST,
* the fast and reference simulator backends agree bitwise on every
  launch's profile counters.
"""

import pytest

from repro.codegen.interp import check_semantics
from repro.deps import compute_dependences
from repro.gpu import simulate_kernel, simulate_reference
from repro.ir.examples import heat_2d, jacobi_1d, jacobi_2d
from repro.pipeline import AkgPipeline, VARIANTS
from repro.schedule import InfluencedScheduler
from repro.schedule.analysis import verify_schedule
from repro.workloads.operators import attention_block_op, depthwise_conv_op

# family -> (builder, writer statement, expected flow relations out of it).
FAMILIES = {
    "jacobi_1d": (lambda: jacobi_1d(12), "S1", 3),
    "jacobi_2d": (lambda: jacobi_2d(8), "S1", 5),
    "heat_2d": (lambda: heat_2d(8), "Step1", 1),
    "depthwise_conv": (lambda: depthwise_conv_op(
        "dw", channels=2, height=4, width=4, kernel_size=2), "Scale", 1),
    # Score's flows: its own carried accumulator, RowMax, and Exp.
    "attention_block": (lambda: attention_block_op(
        "attn", seq=4, dmodel=4), "Score", 3),
}


# What a test checks is simulated whatever ran before it.
pytestmark = pytest.mark.usefixtures("empty_profile_memo")


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    builder, producer, n_flows = FAMILIES[request.param]
    return request.param, builder(), producer, n_flows


class TestOperatorFamilies:
    def test_flow_dependences_found(self, family):
        name, kernel, producer, expected = family
        relations = compute_dependences(kernel)
        flows = [r for r in relations
                 if r.kind == "flow" and r.source.name == producer]
        assert len(flows) == expected

    def test_schedule_valid(self, family):
        _, kernel, _, _ = family
        scheduler = InfluencedScheduler(kernel)
        schedule = scheduler.schedule()
        assert verify_schedule(schedule, scheduler.relations) == []

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_semantics(self, family, variant):
        _, kernel, _, _ = family
        pipe = AkgPipeline(sample_blocks=2)
        compiled = pipe.compile(kernel, variant)
        for launch in compiled.launches:
            assert check_semantics(launch.kernel, launch.ast) == []

    def test_fast_reference_simulator_parity(self, family):
        _, kernel, _, _ = family
        pipe = AkgPipeline(sample_blocks=2)
        compiled = pipe.compile(kernel, "infl")
        for launch in compiled.launches:
            fast = simulate_kernel(launch, sample_blocks=2)
            reference = simulate_reference(launch, sample_blocks=2)
            assert fast.counters() == reference.counters()

    def test_measured(self, family):
        _, kernel, _, _ = family
        pipe = AkgPipeline(sample_blocks=2)
        timing = pipe.compile_and_measure(kernel, "infl")
        assert timing.time > 0


class TestJacobiOrdering:
    """The 1D shifted-read ordering argument, kept from the original suite."""

    def test_neighbour_shift_blocks_fusion_at_same_date(self):
        kernel = jacobi_1d(12)
        scheduler = InfluencedScheduler(kernel)
        schedule = scheduler.schedule()
        s1 = schedule.date_of("S1", {"i": 5}, kernel.params)
        s2 = schedule.date_of("S2", {"i": 4}, kernel.params)
        # S1(5) produces B[5]; S2(4) reads B[5]: order must hold.
        assert s1 < s2

    def test_2d_neighbour_shift_ordering(self):
        kernel = jacobi_2d(8)
        scheduler = InfluencedScheduler(kernel)
        schedule = scheduler.schedule()
        s1 = schedule.date_of("S1", {"i": 3, "j": 3}, kernel.params)
        s2 = schedule.date_of("S2", {"i": 2, "j": 3}, kernel.params)
        # S1(3,3) produces B[3][3]; S2(2,3) reads B[3][3].
        assert s1 < s2
