"""End-to-end tests of Algorithm 1 with influence constraint trees."""

import pytest

from repro.influence import (
    InfluenceNode,
    InfluenceTree,
    build_influence_tree,
    theta_iter,
)
from repro.ir.examples import matmul, running_example, transpose_add
from repro.schedule import InfluencedScheduler, SchedulerOptions
from repro.schedule.analysis import verify_schedule
from repro.solver.problem import var


def schedule_with_tree(kernel, tree, **opts):
    scheduler = InfluencedScheduler(kernel, options=SchedulerOptions(**opts))
    return scheduler, scheduler.schedule(tree)


class TestRunningExampleInfluenced:
    @pytest.fixture(scope="class")
    def result(self):
        kernel = running_example(16)
        tree = build_influence_tree(kernel)
        return schedule_with_tree(kernel, tree)

    def test_valid(self, result):
        scheduler, schedule = result
        assert verify_schedule(schedule, scheduler.relations) == []

    def test_vector_dimension_marked(self, result):
        _, schedule = result
        dim = schedule.vector_dim()
        assert dim is not None
        assert schedule.dims[dim].vector_width == 4

    def test_vector_dimension_is_pure_j(self, result):
        _, schedule = result
        dim = schedule.vector_dim()
        row = schedule.rows["Y"][dim]
        assert row.coefficient_of("j") == 1
        assert row.coefficient_of("i") == 0
        assert row.coefficient_of("k") == 0

    def test_influence_was_applied(self, result):
        scheduler, schedule = result
        assert scheduler.stats.influence_nodes_applied > 0
        assert not scheduler.stats.influence_abandoned
        assert any(info.from_influence for info in schedule.dims)

    def test_complete(self, result):
        _, schedule = result
        assert schedule.is_complete()


class TestHandBuiltTree:
    """A tree reproducing Fig. 3(b)'s structure by hand: dims 0-1 forbid j,
    dim 2 pins j with coefficient exactly 1."""

    def build_tree(self):
        tree = InfluenceTree()
        # j is iterator index 1 of Y (iterators i, j, k).
        d0 = tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("Y", 0, 1)).eq(0)], label="d0"))
        d1 = d0.add_child(InfluenceNode(
            constraints=[var(theta_iter("Y", 1, 1)).eq(0)], label="d1"))
        d1.add_child(InfluenceNode(
            constraints=[var(theta_iter("Y", 2, 1)).eq(1)],
            mark_vector=True, vector_width=4, label="d2-vec"))
        return tree

    def test_schedules_j_at_dim2(self):
        kernel = running_example(16)
        scheduler, schedule = schedule_with_tree(kernel, self.build_tree())
        assert verify_schedule(schedule, scheduler.relations) == []
        assert schedule.rows["Y"][0].coefficient_of("j") == 0
        assert schedule.rows["Y"][1].coefficient_of("j") == 0
        assert schedule.rows["Y"][2].coefficient_of("j") == 1
        assert schedule.vector_dim() == 2


class TestSiblingFallback:
    def test_infeasible_first_branch_falls_back(self):
        """First branch demands an impossible row (all coefficients zero
        conflicts with progression); the sibling must be taken."""
        kernel = matmul(8)
        tree = InfluenceTree()
        bad = InfluenceNode(
            constraints=[var(theta_iter("S", 0, k)).eq(0) for k in range(3)],
            label="bad")
        good = InfluenceNode(
            constraints=[var(theta_iter("S", 0, 0)).eq(1)], label="good")
        tree.root.add_child(bad)
        tree.root.add_child(good)
        scheduler, schedule = schedule_with_tree(kernel, tree)
        assert scheduler.stats.sibling_fallbacks >= 1
        assert schedule.rows["S"][0].coefficient_of("i") == 1
        assert verify_schedule(schedule, scheduler.relations) == []

    def test_all_branches_infeasible_runs_plain(self):
        kernel = matmul(8)
        tree = InfluenceTree()
        for label in ("bad1", "bad2"):
            tree.root.add_child(InfluenceNode(
                constraints=[var(theta_iter("S", 0, k)).eq(0)
                             for k in range(3)],
                label=label))
        scheduler, schedule = schedule_with_tree(kernel, tree)
        assert scheduler.stats.influence_abandoned
        assert verify_schedule(schedule, scheduler.relations) == []


class TestAncestorBacktrack:
    def test_deep_conflict_backtracks(self):
        """Branch A's depth-1 child conflicts with its depth-0 constraint;
        the scheduler must withdraw dimension 0 and move to branch B."""
        kernel = matmul(8)
        tree = InfluenceTree()
        a = tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("S", 0, 2)).eq(1),
                         var(theta_iter("S", 0, 0)).eq(0),
                         var(theta_iter("S", 0, 1)).eq(0)],
            label="A"))
        # Child requires dim 1 == dim 0's row (linearly dependent: the
        # progression constraints make this infeasible).
        a.add_child(InfluenceNode(
            constraints=[var(theta_iter("S", 1, 2)).eq(1),
                         var(theta_iter("S", 1, 0)).eq(0),
                         var(theta_iter("S", 1, 1)).eq(0)],
            label="A0"))
        b = tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("S", 0, 0)).eq(1)], label="B"))
        b.add_child(InfluenceNode(
            constraints=[var(theta_iter("S", 1, 1)).eq(1)], label="B0"))
        scheduler, schedule = schedule_with_tree(kernel, tree)
        assert scheduler.stats.ancestor_backtracks >= 1
        assert schedule.rows["S"][0].coefficient_of("i") == 1
        assert schedule.rows["S"][1].coefficient_of("j") == 1
        assert verify_schedule(schedule, scheduler.relations) == []


class TestInfluencedVsPlain:
    def test_transpose_innermost_changes(self):
        """On a transpose feeding an add, influence pins the innermost loop
        to the store-contiguous iterator and marks it vector."""
        kernel = transpose_add(16)
        tree = build_influence_tree(kernel)
        scheduler, influenced = schedule_with_tree(kernel, tree)
        assert verify_schedule(influenced, scheduler.relations) == []
        dim = influenced.vector_dim()
        assert dim is not None
        # Both statements write [i][j]: innermost must be j for both.
        for name in ("T", "E"):
            assert influenced.rows[name][dim].coefficient_of("j") == 1
