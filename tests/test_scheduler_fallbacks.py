"""Backtracking-ladder activations on crafted unsatisfiable influence trees.

The scheduler's constraints bound every iterator coefficient to
``[0, coeff_bound]``, so an influence node demanding a coefficient above
the bound is structurally infeasible — a precise way to force one branch
of the tree to fail while its sibling (or the plain restart) succeeds.
"""

from repro.influence import InfluenceNode, InfluenceTree, theta_iter
from repro.ir.examples import running_example
from repro.schedule import InfluencedScheduler, SchedulerOptions
from repro.schedule.analysis import verify_schedule
from repro.solver.problem import var

COEFF_BOUND = 7
IMPOSSIBLE = COEFF_BOUND + 3  # above the coefficient bound: infeasible


def run(tree):
    kernel = running_example(16)
    scheduler = InfluencedScheduler(
        kernel, options=SchedulerOptions(coeff_bound=COEFF_BOUND))
    schedule = scheduler.schedule(tree)
    assert verify_schedule(schedule, scheduler.relations) == []
    return scheduler, schedule


class TestSiblingFallback:
    def test_infeasible_first_child_falls_to_sibling(self):
        tree = InfluenceTree()
        tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("Y", 0, 0)).eq(IMPOSSIBLE)],
            label="impossible"))
        tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("Y", 0, 0)).eq(1)],
            label="feasible"))
        scheduler, schedule = run(tree)
        assert scheduler.stats.sibling_fallbacks >= 1
        assert not scheduler.stats.influence_abandoned
        # The sibling's constraint made it into the schedule.
        assert schedule.rows["Y"][0].coefficient_of("i") == 1

    def test_feasible_first_child_needs_no_fallback(self):
        tree = InfluenceTree()
        tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("Y", 0, 0)).eq(1)], label="ok"))
        scheduler, _ = run(tree)
        assert scheduler.stats.sibling_fallbacks == 0
        assert scheduler.stats.influence_nodes_applied >= 1


class TestRestartWithoutInfluence:
    def test_single_infeasible_child_abandons_influence(self):
        tree = InfluenceTree()
        tree.root.add_child(InfluenceNode(
            constraints=[var(theta_iter("Y", 0, 0)).eq(IMPOSSIBLE)],
            label="impossible"))
        scheduler, schedule = run(tree)
        assert scheduler.stats.influence_abandoned
        assert schedule.is_complete()
        assert not any(info.from_influence for info in schedule.dims)

    def test_all_siblings_infeasible_abandons_influence(self):
        tree = InfluenceTree()
        for index in range(2):
            tree.root.add_child(InfluenceNode(
                constraints=[var(theta_iter("Y", 0, 0)).eq(IMPOSSIBLE + index)],
                label=f"impossible{index}"))
        scheduler, schedule = run(tree)
        assert scheduler.stats.sibling_fallbacks >= 1
        assert scheduler.stats.influence_abandoned
        assert schedule.is_complete()
