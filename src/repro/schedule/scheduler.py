"""Algorithm 1: influenced scheduling construction.

A Pluto-style iterative scheduler (one ILP per dimension, outermost first)
extended with influence constraint tree injection and the paper's
backtracking ladder.  When the per-dimension ILP has no solution we try, in
order (Section IV-B):

1. drop the progression constraints when all dependences are satisfied and
   the influence tree asks for supplementary dimensions;
2. move to the next (lower-priority) sibling of the current tree node;
3. discard permutability: retire dependences already strongly satisfied by
   the rows built so far (ends the current permutable band);
4. backtrack to the closest right sibling of an ancestor node, withdrawing
   the schedule dimensions built since;
5. separate strongly connected components of the remaining dependence graph
   with a scalar dimension.

Ultimately, if no influence scenario is feasible at all, the scheduler
reruns without influence constraints — its output is then that of the plain
(isl-configured) scheduler.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

from repro.deps.analysis import compute_dependences
from repro.deps.graph import DependenceGraph
from repro.deps.relation import DependenceRelation
from repro.errors import BranchLimitExceeded, SchedulingError
from repro.faultinject import fault_action, raise_fault
from repro.influence.tree import InfluenceTree, TreeCursor, parse_theta
from repro.ir.kernel import Kernel
from repro.obs.provenance import NULL_JOURNAL, get_journal
from repro.obs.runtime import NULL_OBS, get_obs
from repro.schedule.analysis import annotate_parallelism, satisfaction_depth
from repro.schedule.constraints import (
    DimensionProblem,
    const_coeff_name,
    iter_coeff_name,
    param_coeff_name,
)
from repro.schedule.functions import DimensionInfo, Schedule, ScheduleRow
from repro.solver.budget import SolveBudget, use_budget
from repro.solver.problem import Constraint, LinExpr, var

__all__ = ["SchedulingError", "SchedulerOptions", "SchedulerStats",
           "InfluencedScheduler"]


# Dimension-construction steps before a schedule is given up.
MAX_ITERATIONS = 400
# Branch-and-bound nodes per dimension ILP.
MAX_ILP_NODES = 60_000


class _RestartWithoutInfluence(Exception):
    """Internal: no influence scenario is feasible; rerun plain."""


@dataclass
class SchedulerOptions:
    """Configuration of the influenced scheduler."""

    coeff_bound: int = 7          # schedule coefficients live in [0, bound]
    # Optional cumulative work budget per construction attempt; exhausting
    # it raises SolverTimeout (see repro.solver.budget for the semantics).
    budget: Optional[SolveBudget] = None


@dataclass
class SchedulerStats:
    """Counters describing one scheduling run (used by the backtracking
    experiment: the paper reports only few fallback activations)."""

    ilp_solves: int = 0
    dimensions_built: int = 0
    coincident_dimensions: int = 0
    coincidence_retries: int = 0
    sibling_fallbacks: int = 0
    permutability_drops: int = 0
    ancestor_backtracks: int = 0
    scc_separations: int = 0
    influence_nodes_applied: int = 0
    influence_abandoned: bool = False
    progression_drops: int = 0
    branch_limit_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain mapping, ready for pass-context aggregation
        (``influence_abandoned`` becomes a 0/1 activation count)."""
        return {name: int(value) for name, value in asdict(self).items()}


class InfluencedScheduler:
    """Algorithm 1 over one kernel."""

    def __init__(self, kernel: Kernel,
                 relations: Optional[Sequence[DependenceRelation]] = None,
                 options: Optional[SchedulerOptions] = None):
        self.kernel = kernel
        self.options = options or SchedulerOptions()
        if relations is None:
            relations = compute_dependences(kernel)
        self.relations = list(relations)
        self.stats = SchedulerStats()
        self._obs = NULL_OBS
        self._journal = NULL_JOURNAL
        # Symbolic forms of the relations, shared by every dimension
        # problem of one schedule() call; see DimensionProblem.
        self._forms: dict = {}

    # -- public API -----------------------------------------------------------

    def schedule(self, tree: Optional[InfluenceTree] = None) -> Schedule:
        """Construct a complete valid schedule, influenced by ``tree``."""
        if tree is not None:
            tree.validate()
        self.stats = SchedulerStats()
        self._obs = get_obs()
        self._journal = get_journal()
        self._forms = {}
        with self._obs.span("scheduler.schedule", kernel=self.kernel.name,
                            influenced=tree is not None) as span:
            self._journal.note("schedule-start", kernel=self.kernel.name,
                               influenced=tree is not None)
            try:
                with self._budget_scope():
                    result = self._construct(tree)
            except _RestartWithoutInfluence:
                self.stats.influence_abandoned = True
                self._obs.event("scheduler.backtrack", kind="abandon-influence",
                                kernel=self.kernel.name)
                self._journal.backtrack("abandon-influence", dim=-1,
                                        kernel=self.kernel.name)
                with self._budget_scope():
                    result = self._construct(None)
            span.set(dimensions=result.n_dims,
                     ilp_solves=self.stats.ilp_solves)
            self._journal.note("schedule-done", kernel=self.kernel.name,
                               dimensions=result.n_dims,
                               ilp_solves=self.stats.ilp_solves)
        annotate_parallelism(result, self.relations)
        return result

    def _budget_scope(self):
        """An ambient-budget context for one construction attempt.

        Each attempt (influenced, and the restart without influence)
        gets a fresh countdown so the restart is not charged for the
        abandoned attempt's spending."""
        if self.options.budget is None:
            return nullcontext()
        return use_budget(self.options.budget.start())

    # -- construction -----------------------------------------------------------

    def _construct(self, tree: Optional[InfluenceTree]) -> Schedule:
        statements = self.kernel.statements
        params = self.kernel.parameter_names
        schedule = Schedule(statements, params)
        active: list[DependenceRelation] = list(self.relations)
        cursor: Optional[TreeCursor] = tree.cursor() if tree else None
        # Snapshot of `active` at the moment each tree depth was entered,
        # plus the schedule dimension count at that moment (for withdrawal).
        backups: list[tuple[list[DependenceRelation], int]] = []
        band = 0

        for _ in range(MAX_ITERATIONS):
            if schedule.is_complete():
                # Retire dependences strongly satisfied by the built rows.
                remaining = [r for r in active
                             if satisfaction_depth(r, schedule) is None]
                if len(remaining) != len(active):
                    active = remaining
                    continue
                if active:
                    band += 1
                    if not self._separate_sccs(schedule, active, band):
                        raise SchedulingError(
                            f"kernel {self.kernel.name}: mutually dependent "
                            f"statements remain in one component with no "
                            f"dimension left to order them")
                    active = [r for r in active
                              if satisfaction_depth(r, schedule) is None]
                    continue
                if cursor is None:
                    break
                # Influence wants supplementary dimensions: drop progression
                # (Algorithm 1 lines 12-15).
                self._snapshot(backups, cursor, active, schedule)
                self.stats.progression_drops += 1
                with self._obs.span("scheduler.dimension",
                                    dim=schedule.n_dims,
                                    supplementary=True) as span:
                    solves_before = self.stats.ilp_solves
                    rows = self._solve_dimension(
                        schedule, active, cursor, with_progression=False,
                        coincidence=False)
                    if rows is not None:
                        self._append(schedule, rows, cursor, band,
                                     coincident=False)
                        span.set(built=True,
                                 ilp_solves=self.stats.ilp_solves
                                 - solves_before)
                        cursor = cursor.first_child()
                        continue
                    cursor, schedule, active, band = self._fallback(
                        schedule, active, cursor, backups, band)
                    span.set(built=False,
                             ilp_solves=self.stats.ilp_solves - solves_before)
                continue

            if cursor is not None:
                self._snapshot(backups, cursor, active, schedule)

            with self._obs.span("scheduler.dimension",
                                dim=schedule.n_dims) as span:
                solves_before = self.stats.ilp_solves
                rows, coincident = self._attempt(schedule, active, cursor)
                if rows is not None:
                    self._append(schedule, rows, cursor, band, coincident)
                    span.set(built=True, coincident=coincident,
                             ilp_solves=self.stats.ilp_solves - solves_before)
                    if cursor is not None:
                        cursor = cursor.first_child()
                    continue

                # Failure ladder (2)-(5).
                previous = (cursor, schedule.n_dims, len(active))
                cursor, schedule, active, band = self._fallback(
                    schedule, active, cursor, backups, band)
                span.set(built=False,
                         ilp_solves=self.stats.ilp_solves - solves_before)
            if (cursor, schedule.n_dims, len(active)) == previous:
                raise SchedulingError(
                    f"no progress scheduling kernel {self.kernel.name} at "
                    f"dimension {schedule.n_dims}")
        else:
            raise SchedulingError(
                f"iteration limit exceeded for kernel {self.kernel.name}")
        return schedule

    @staticmethod
    def _snapshot(backups, cursor, active, schedule) -> None:
        """Record ``Backup[d] := D`` (Algorithm 1 line 5) for the cursor's
        depth, together with the current dimension count for withdrawal."""
        while len(backups) <= cursor.depth:
            backups.append(None)
        backups[cursor.depth] = (list(active), schedule.n_dims)

    # -- one dimension ----------------------------------------------------------------

    def _attempt(self, schedule: Schedule, active, cursor):
        """Solve one dimension: coincidence first (isl-style), then plain.

        The validity + proximity constraint system is shared by both tries,
        so it is linearized once and forked per try.

        Returns (rows or None, coincident_flag)."""
        node = cursor.node if cursor is not None else None
        base = self._build_base(active)
        if active:
            rows = self._solve_dimension(schedule, active, cursor,
                                         with_progression=True,
                                         coincidence=True, base=base)
            if rows is not None:
                return rows, True
            self.stats.coincidence_retries += 1
            if node is not None and node.require_parallel:
                return None, False
        rows = self._solve_dimension(schedule, active, cursor,
                                     with_progression=True, coincidence=False,
                                     base=base)
        return rows, False

    def _build_base(self, active) -> DimensionProblem:
        """Validity + proximity constraints common to every try of one
        dimension."""
        base = DimensionProblem(self.kernel.statements,
                                self.kernel.parameter_names,
                                coeff_bound=self.options.coeff_bound,
                                forms=self._forms)
        base.add_validity(active)
        base.add_proximity(active)
        return base

    def _solve_dimension(self, schedule: Schedule, active, cursor,
                         with_progression: bool, coincidence: bool,
                         base: Optional[DimensionProblem] = None):
        statements = self.kernel.statements
        params = self.kernel.parameter_names
        problem = base.fork() if base is not None else self._build_base(active)
        if coincidence:
            problem.add_coincidence(active)
        if with_progression:
            skip = set(cursor.node.allow_zero) if cursor is not None else set()
            problem.add_progression(schedule.rows, skip=skip)
        injected: list[LinExpr] = []
        translated: list[Constraint] = []
        if cursor is not None:
            translated = self._translate_influence(cursor.node, schedule,
                                                   schedule.n_dims)
            problem.add_raw_constraints(translated)
            injected = [
                self._translate_expr(expr, schedule, schedule.n_dims)
                for expr in cursor.node.objectives]
            for expr in injected:
                for name in expr.variables():
                    problem.problem.add_variable(
                        name, lower=0, upper=self.options.coeff_bound)
        extra = self._tie_break_objectives(statements)
        action = fault_action("scheduler.dimension",
                              kernel=self.kernel.name, dim=schedule.n_dims,
                              coincidence=coincidence)
        if action == "infeasible":
            # Injected infeasibility: report the dimension unsolvable so
            # the backtracking ladder (sibling/permutability/SCC) runs.
            self._obs.event("scheduler.ilp-solve", dim=schedule.n_dims,
                            coincidence=coincidence,
                            progression=with_progression,
                            feasible=False, injected=True)
            self._journal_dimension(schedule, cursor, coincidence,
                                    with_progression, translated,
                                    feasible=False, fault_injected=True)
            return None
        if action is not None:
            raise_fault(action, "scheduler.dimension",
                        kernel=self.kernel.name, dim=schedule.n_dims)
        self.stats.ilp_solves += 1
        try:
            rows = problem.solve(extra_objectives=extra,
                                 injected_objectives=injected,
                                 max_nodes=MAX_ILP_NODES)
        except BranchLimitExceeded:
            # A degenerate per-dimension ILP is treated like infeasibility:
            # backtrack rather than abort the whole construction.
            self.stats.branch_limit_hits += 1
            self._obs.event("scheduler.ilp-solve", dim=schedule.n_dims,
                            coincidence=coincidence,
                            progression=with_progression,
                            feasible=False, branch_limit=True)
            self._journal_dimension(schedule, cursor, coincidence,
                                    with_progression, translated,
                                    feasible=False, branch_limit=True)
            return None
        self._obs.event("scheduler.ilp-solve", dim=schedule.n_dims,
                        coincidence=coincidence,
                        progression=with_progression,
                        feasible=rows is not None)
        self._journal_dimension(schedule, cursor, coincidence,
                                with_progression, translated,
                                feasible=rows is not None)
        if rows is None:
            return None
        out = {}
        for s in statements:
            coeffs = rows[s.name]
            out[s.name] = ScheduleRow.from_coeffs(
                s, params, coeffs[:s.depth],
                coeffs[s.depth:s.depth + len(params)], coeffs[-1])
        return out

    def _journal_dimension(self, schedule: Schedule, cursor, coincidence: bool,
                           with_progression: bool, translated, feasible: bool,
                           **extra) -> None:
        """One provenance event per dimension ILP attempt: the injected
        constraint set, the tree node it came from, and the verdict."""
        if not self._journal.enabled:
            return
        node = cursor.node if cursor is not None else None
        self._journal.dimension(
            schedule.n_dims,
            coincidence=coincidence,
            progression=with_progression,
            node=node.label if node is not None else "",
            injected=[repr(c) for c in translated],
            feasible=feasible, **extra)

    def _tie_break_objectives(self, statements) -> list[LinExpr]:
        """Prefer the textual loop order on cost ties: minimize the weight
        given to *later* iterators first, so outer original loops win."""
        max_depth = max((s.depth for s in statements), default=0)
        levels = []
        for position in range(max_depth - 1, -1, -1):
            total = LinExpr()
            for s in statements:
                if position < s.depth:
                    total = total + var(iter_coeff_name(s.name, position))
            levels.append(total)
        return levels

    def _append(self, schedule: Schedule, rows, cursor, band: int,
                coincident: bool) -> None:
        node = cursor.node if cursor is not None else None
        info = DimensionInfo(coincident=coincident, band=band,
                             from_influence=node is not None
                             and bool(node.constraints))
        schedule.append_dimension(rows, info)
        self.stats.dimensions_built += 1
        if coincident:
            self.stats.coincident_dimensions += 1
        if node is not None:
            self.stats.influence_nodes_applied += 1
            if node.mark_vector:
                dim = schedule.n_dims - 1
                schedule.mark_vector(dim)
                schedule.dims[dim].vector_width = node.vector_width

    # -- fallbacks ------------------------------------------------------------------------

    def _fallback(self, schedule: Schedule, active, cursor, backups, band):
        """Steps (2)-(5) of the ladder; returns updated state."""
        # (2) right sibling of the current node.
        if cursor is not None:
            sibling = cursor.right_sibling()
            if sibling is not None:
                self.stats.sibling_fallbacks += 1
                self._obs.event("scheduler.backtrack", kind="sibling",
                                dim=schedule.n_dims)
                self._journal.backtrack("sibling", dim=schedule.n_dims,
                                        to=sibling.node.label)
                saved_active, _ = backups[cursor.depth]
                return sibling, schedule, list(saved_active), band

        # (3) discard permutability: retire strongly satisfied dependences.
        remaining = [r for r in active if satisfaction_depth(r, schedule) is None]
        if len(remaining) != len(active):
            self.stats.permutability_drops += 1
            self._obs.event("scheduler.backtrack", kind="permutability-drop",
                            dim=schedule.n_dims)
            self._journal.backtrack("permutability-drop",
                                    dim=schedule.n_dims,
                                    retired=len(active) - len(remaining))
            return cursor, schedule, remaining, band + 1

        # (4) closest right sibling of an ancestor.
        if cursor is not None:
            ancestor = cursor.ancestor_right_sibling()
            if ancestor is not None:
                self.stats.ancestor_backtracks += 1
                self._obs.event("scheduler.backtrack", kind="ancestor",
                                dim=schedule.n_dims)
                self._journal.backtrack("ancestor", dim=schedule.n_dims,
                                        to=ancestor.node.label)
                saved_active, saved_dims = backups[ancestor.depth]
                schedule.drop_dimensions_from(saved_dims)
                del backups[ancestor.depth:]
                new_band = schedule.dims[-1].band if schedule.dims else 0
                return ancestor, schedule, list(saved_active), new_band

        # (5) separate strongly connected components.  A separation only
        # helps if ordering the components strongly satisfies (and thereby
        # retires) at least one dependence; otherwise the next dimension
        # problem fails for the very same reason and the ladder would loop
        # appending scalar dimensions until MAX_ITERATIONS — withdraw the
        # fruitless dimension and fall through to the final rung instead.
        if self._separate_sccs(schedule, active, band + 1):
            remaining = [r for r in active
                         if satisfaction_depth(r, schedule) is None]
            if len(remaining) < len(active):
                self._obs.event("scheduler.backtrack", kind="scc-separation",
                                dim=schedule.n_dims)
                self._journal.backtrack("scc-separation",
                                        dim=schedule.n_dims)
                return cursor, schedule, remaining, band + 1
            schedule.drop_dimensions_from(schedule.n_dims - 1)
            self.stats.scc_separations -= 1
            self.stats.dimensions_built -= 1

        # Ultimately: drop influence entirely.
        if cursor is not None:
            raise _RestartWithoutInfluence()
        raise SchedulingError(
            f"kernel {self.kernel.name}: single component remains with "
            f"unsatisfiable constraints (Feautrier fallback not required "
            f"for AI/DL operators per the paper, hence not implemented)")

    def _separate_sccs(self, schedule: Schedule, active, band: int) -> bool:
        """Append a scalar dimension ordering the SCCs of the remaining
        dependence graph (Algorithm 1 lines 32-37).  Returns False when
        there is only one component (no separation possible)."""
        graph = DependenceGraph(self.kernel.statements, active)
        components = graph.topological_components()
        if len(components) < 2:
            return False
        order = {}
        for index, component in enumerate(components):
            for name in component:
                order[name] = index
        params = self.kernel.parameter_names
        rows = {s.name: ScheduleRow.scalar(s, params, order[s.name])
                for s in self.kernel.statements}
        schedule.append_dimension(rows, DimensionInfo(band=band))
        self.stats.scc_separations += 1
        self.stats.dimensions_built += 1
        return True

    # -- influence translation -----------------------------------------------------------

    def _translate_influence(self, node, schedule: Schedule,
                             current_dim: int) -> list[Constraint]:
        """Rewrite a node's theta-name constraints for the current ILP.

        Coefficients of the current dimension map onto the ILP's variables;
        coefficients of earlier dimensions are substituted with their solved
        values.  (Tree validation guarantees no later dimension appears.)
        """
        return [Constraint(self._translate_expr(c.expr, schedule,
                                                 current_dim), c.sense)
                for c in node.constraints]

    def _translate_expr(self, source: LinExpr, schedule: Schedule,
                        current_dim: int) -> LinExpr:
        """Rewrite one theta-name expression for the current ILP."""
        expr = LinExpr(const=source.const)
        for name, coeff in source.coeffs.items():
            parsed = parse_theta(name)
            if parsed is None:
                raise ValueError(f"non-theta variable {name!r} in "
                                 f"influence constraint")
            stmt, dim, which = parsed
            if dim > current_dim:
                raise ValueError(f"influence constraint mentions future "
                                 f"dimension {dim} at dim {current_dim}")
            if dim == current_dim:
                expr = expr + coeff * var(self._current_name(stmt, which))
            else:
                expr = expr + coeff * self._solved_value(
                    schedule, stmt, dim, which)
        return expr

    def _current_name(self, stmt: str, which: str) -> str:
        if which == "0":
            return const_coeff_name(stmt)
        if which.startswith("p[") and which.endswith("]"):
            return param_coeff_name(stmt, which[2:-1])
        if which.startswith("i"):
            return iter_coeff_name(stmt, int(which[1:]))
        raise ValueError(f"bad theta component {which!r}")

    def _solved_value(self, schedule: Schedule, stmt: str, dim: int,
                      which: str) -> int:
        row = schedule.rows[stmt][dim]
        if which == "0":
            return row.const
        if which.startswith("p[") and which.endswith("]"):
            param = which[2:-1]
            return row.param_coeffs[row.param_names.index(param)]
        if which.startswith("i"):
            return row.iter_coeffs[int(which[1:])]
        raise ValueError(f"bad theta component {which!r}")
