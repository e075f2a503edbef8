"""Tests for influence-node objective injection (Section IV-A-4)."""

import pytest

from repro.influence import InfluenceNode, InfluenceTree, theta_iter
from repro.ir.examples import matmul
from repro.schedule import InfluencedScheduler
from repro.schedule.analysis import verify_schedule
from repro.solver.problem import var


def schedule_with(tree):
    kernel = matmul(8)
    scheduler = InfluencedScheduler(kernel)
    return scheduler, scheduler.schedule(tree)


class TestObjectiveInjection:
    def test_objective_steers_tie(self):
        """matmul's dims i and j tie under the builtin cost; an injected
        objective penalizing i's coefficient makes j come first."""
        tree = InfluenceTree()
        tree.root.add_child(InfluenceNode(
            label="prefer-j",
            objectives=[var(theta_iter("S", 0, 0))]))  # minimize coeff of i
        scheduler, schedule = schedule_with(tree)
        assert verify_schedule(schedule, scheduler.relations) == []
        assert schedule.rows["S"][0].coefficient_of("j") == 1
        assert schedule.rows["S"][0].coefficient_of("i") == 0

    def test_objective_does_not_override_proximity(self):
        """An injected objective sits below the reuse-distance levels: it
        cannot force the reduction loop k outermost (that would need u=1
        where u=0 alternatives exist)."""
        tree = InfluenceTree()
        # "Maximize" k's coefficient by minimizing its negation.
        tree.root.add_child(InfluenceNode(
            label="want-k",
            objectives=[-1 * var(theta_iter("S", 0, 2))]))
        scheduler, schedule = schedule_with(tree)
        assert verify_schedule(schedule, scheduler.relations) == []
        # k still cannot be the (coincident) outermost dimension.
        assert schedule.rows["S"][0].coefficient_of("k") == 0

    def test_objectives_validated_for_future_dims(self):
        tree = InfluenceTree()
        tree.root.add_child(InfluenceNode(
            objectives=[var(theta_iter("S", 3, 0))]))
        with pytest.raises(ValueError):
            tree.validate()

    def test_combined_with_constraints(self):
        tree = InfluenceTree()
        node = tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("S", 0, 2)).eq(0)],
            objectives=[var(theta_iter("S", 0, 0))]))
        node.add_child(InfluenceNode(
            constraints=[var(theta_iter("S", 1, 2)).eq(0)]))
        scheduler, schedule = schedule_with(tree)
        assert verify_schedule(schedule, scheduler.relations) == []
        assert schedule.rows["S"][0].coefficient_of("j") == 1
        assert schedule.rows["S"][1].coefficient_of("i") == 1
        assert schedule.rows["S"][2].coefficient_of("k") == 1
