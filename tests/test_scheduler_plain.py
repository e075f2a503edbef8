"""Tests for the scheduler without influence (plain isl-configured mode)."""

from fractions import Fraction

import pytest

from repro.deps import compute_dependences
from repro.ir.examples import elementwise_chain, matmul, running_example, transpose_add
from repro.schedule import InfluencedScheduler, SchedulerOptions
from repro.schedule.analysis import satisfaction_depth, verify_schedule


def schedule_kernel(kernel, **opts):
    scheduler = InfluencedScheduler(kernel, options=SchedulerOptions(**opts))
    return scheduler, scheduler.schedule()


class TestRunningExample:
    @pytest.fixture(scope="class")
    def result(self):
        return schedule_kernel(running_example(16))

    def test_valid(self, result):
        scheduler, schedule = result
        assert verify_schedule(schedule, scheduler.relations) == []

    def test_complete(self, result):
        _, schedule = result
        assert schedule.is_complete()

    def test_outer_dimension_fused_and_parallel(self, result):
        _, schedule = result
        # Dimension 0 should be (i, i): coincident fusion on i.
        row_x = schedule.rows["X"][0]
        row_y = schedule.rows["Y"][0]
        assert row_x.coefficient_of("i") == 1
        assert row_y.coefficient_of("i") == 1
        assert schedule.dims[0].coincident
        assert schedule.dims[0].parallel

    def test_statement_order_preserved(self, result):
        """X instances run before the Y instances that consume them."""
        _, schedule = result
        params = {"N": 16}
        x_date = schedule.date_of("X", {"i": Fraction(1), "k": Fraction(2)}, params)
        y_date = schedule.date_of(
            "Y", {"i": Fraction(1), "j": Fraction(0), "k": Fraction(2)}, params)
        assert x_date < y_date

    def test_reduction_dimension_not_parallel(self, result):
        _, schedule = result
        # Some dimension carries the C self-dependence (the k loop of Y).
        assert not all(info.parallel for info in schedule.dims)


class TestMatmul:
    @pytest.fixture(scope="class")
    def result(self):
        return schedule_kernel(matmul(8))

    def test_valid_and_complete(self, result):
        scheduler, schedule = result
        assert verify_schedule(schedule, scheduler.relations) == []
        assert schedule.is_complete()

    def test_two_parallel_one_sequential(self, result):
        _, schedule = result
        flags = [info.parallel for info in schedule.dims]
        assert flags.count(True) >= 2
        assert flags.count(False) >= 1

    def test_textual_order_preference(self, result):
        _, schedule = result
        # With textual tie-break, the band should come out as (i, j, k).
        rows = schedule.rows["S"]
        assert rows[0].coefficient_of("i") == 1 and rows[0].coefficient_of("j") == 0
        assert rows[1].coefficient_of("j") == 1
        assert rows[2].coefficient_of("k") == 1

    def test_self_dependence_satisfied_at_k(self, result):
        scheduler, schedule = result
        flows = [r for r in scheduler.relations
                 if r.kind == "flow" and r.source.name == "S"]
        assert flows
        assert all(satisfaction_depth(r, schedule) == 2 for r in flows)


class TestElementwiseChain:
    def test_fusion_zero_traffic_schedule(self):
        scheduler, schedule = schedule_kernel(elementwise_chain(8, length=3))
        assert verify_schedule(schedule, scheduler.relations) == []
        # All three statements share the first two (parallel) dimensions.
        for d in range(2):
            coeffs = {name: schedule.rows[name][d].iter_coeffs
                      for name in ("S0", "S1", "S2")}
            assert coeffs["S0"] == coeffs["S1"] == coeffs["S2"]
            assert schedule.dims[d].parallel

    def test_final_scalar_dimension_orders_statements(self):
        _, schedule = schedule_kernel(elementwise_chain(8, length=3))
        last = schedule.n_dims - 1
        consts = [schedule.rows[f"S{k}"][last].const for k in range(3)]
        assert consts == sorted(consts)
        assert consts[0] < consts[1] < consts[2]


class TestTransposeAdd:
    def test_valid(self):
        scheduler, schedule = schedule_kernel(transpose_add(8))
        assert verify_schedule(schedule, scheduler.relations) == []
        assert schedule.is_complete()


class TestStats:
    def test_counters_populated(self):
        scheduler, schedule = schedule_kernel(running_example(8))
        assert scheduler.stats.ilp_solves > 0
        assert scheduler.stats.dimensions_built == schedule.n_dims
        assert not scheduler.stats.influence_abandoned

    def test_coincidence_retry_on_reduction(self):
        scheduler, _ = schedule_kernel(matmul(8))
        # The k dimension cannot be coincident: at least one retry happened.
        assert scheduler.stats.coincidence_retries >= 1
