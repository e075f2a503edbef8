"""Tests for satisfaction depths, schedule verification and parallelism
annotation (the multidimensional semantics of Section III-B)."""

import pytest

from repro.deps import compute_dependences
from repro.ir.examples import elementwise_chain, matmul, running_example
from repro.schedule import InfluencedScheduler, Schedule, ScheduleRow
from repro.schedule.analysis import (
    annotate_parallelism,
    satisfaction_depth,
    verify_schedule,
)


def hand_schedule(kernel, rows_per_stmt):
    """Build a Schedule from explicit per-statement coefficient rows.

    ``rows_per_stmt[name]`` is a list of (iter_coeffs, param_coeffs, const).
    """
    params = kernel.parameter_names
    schedule = Schedule(kernel.statements, params)
    n_dims = len(next(iter(rows_per_stmt.values())))
    for d in range(n_dims):
        rows = {}
        for s in kernel.statements:
            iter_coeffs, param_coeffs, const = rows_per_stmt[s.name][d]
            rows[s.name] = ScheduleRow.from_coeffs(s, params, iter_coeffs,
                                                   param_coeffs, const)
        schedule.append_dimension(rows)
    return schedule


class TestVerifySchedule:
    def test_original_order_valid(self):
        """The textual 2d+1-style schedule of the running example checks
        out (day split + per-statement identity)."""
        kernel = running_example(4)
        rels = compute_dependences(kernel)
        schedule = hand_schedule(kernel, {
            # X at (0, i, k, 0); Y at (1, i, j, k).
            "X": [([0, 0], [0], 0), ([1, 0], [0], 0),
                  ([0, 1], [0], 0), ([0, 0], [0], 0)],
            "Y": [([0, 0, 0], [0], 1), ([1, 0, 0], [0], 0),
                  ([0, 1, 0], [0], 0), ([0, 0, 1], [0], 0)],
        })
        assert verify_schedule(schedule, rels) == []

    def test_reversed_order_detected(self):
        """Scheduling Y before X breaks the flow on B."""
        kernel = running_example(4)
        rels = compute_dependences(kernel)
        schedule = hand_schedule(kernel, {
            "X": [([0, 0], [0], 1), ([1, 0], [0], 0),
                  ([0, 1], [0], 0), ([0, 0], [0], 0)],
            "Y": [([0, 0, 0], [0], 0), ([1, 0, 0], [0], 0),
                  ([0, 1, 0], [0], 0), ([0, 0, 1], [0], 0)],
        })
        violations = verify_schedule(schedule, rels)
        assert violations
        assert any("reversed" in str(v) for v in violations)

    def test_incomplete_order_detected(self):
        """Fusing X and Y at the same date never strongly satisfies the
        flow on B (ties are not an order)."""
        kernel = running_example(4)
        rels = compute_dependences(kernel)
        schedule = hand_schedule(kernel, {
            "X": [([1, 0], [0], 0), ([0, 1], [0], 0), ([0, 0], [0], 0)],
            "Y": [([1, 0, 0], [0], 0), ([0, 0, 1], [0], 0),
                  ([0, 1, 0], [0], 0)],
        })
        violations = verify_schedule(schedule, rels)
        assert any("never strongly satisfied" in str(v) for v in violations)


class TestSatisfactionDepth:
    def test_scalar_split_satisfies_at_zero(self):
        kernel = running_example(4)
        rels = [r for r in compute_dependences(kernel)
                if r.source.name == "X" and r.target.name == "Y"]
        schedule = hand_schedule(kernel, {
            "X": [([0, 0], [0], 0), ([1, 0], [0], 0), ([0, 1], [0], 0),
                  ([0, 0], [0], 0)],
            "Y": [([0, 0, 0], [0], 1), ([1, 0, 0], [0], 0),
                  ([0, 1, 0], [0], 0), ([0, 0, 1], [0], 0)],
        })
        assert all(satisfaction_depth(r, schedule) == 0 for r in rels)

    def test_reduction_satisfied_at_k(self):
        kernel = matmul(4)
        scheduler = InfluencedScheduler(kernel)
        schedule = scheduler.schedule()
        self_rels = [r for r in scheduler.relations
                     if r.source.name == r.target.name]
        assert self_rels
        assert {satisfaction_depth(r, schedule) for r in self_rels} == {2}


class TestParallelismAnnotation:
    def test_elementwise_all_parallel_loops(self):
        kernel = elementwise_chain(4, 2)
        scheduler = InfluencedScheduler(kernel)
        schedule = scheduler.schedule()
        annotate_parallelism(schedule, scheduler.relations)
        # Loop dims parallel; the final scalar dim carries the chain order.
        loop_dims = [d for d in range(schedule.n_dims)
                     if not all(schedule.rows[s.name][d].is_scalar
                                for s in kernel.statements)]
        assert all(schedule.dims[d].parallel for d in loop_dims)

    def test_reduction_dim_not_parallel(self):
        kernel = matmul(4)
        scheduler = InfluencedScheduler(kernel)
        schedule = scheduler.schedule()
        annotate_parallelism(schedule, scheduler.relations)
        flags = [info.parallel for info in schedule.dims]
        assert flags == [True, True, False]

    def test_annotation_position_sensitive(self):
        """The same k row is sequential wherever it sits, but the i/j rows
        stay parallel after it — restriction by earlier dims matters."""
        kernel = matmul(4)
        rels = compute_dependences(kernel)
        schedule = hand_schedule(kernel, {
            "S": [([0, 0, 1], [0], 0), ([1, 0, 0], [0], 0),
                  ([0, 1, 0], [0], 0)],
        })
        annotate_parallelism(schedule, rels)
        assert [info.parallel for info in schedule.dims] == \
            [False, True, True]
