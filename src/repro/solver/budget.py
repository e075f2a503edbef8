"""Wall-clock and work budgets for solver calls.

A :class:`SolveBudget` declares how much work one scheduling attempt may
spend: a wall-clock deadline plus cumulative simplex-pivot and
branch-and-bound-node allowances.  Starting a budget yields an
:class:`ActiveBudget` whose charge methods the hot solver loops call;
when any allowance runs out they raise
:class:`~repro.errors.SolverTimeout` instead of letting a degenerate ILP
hang an evaluation run.

The active budget is ambient, mirroring ``repro.obs.runtime``: the
scheduler installs it with :func:`use_budget` around one construction
attempt and ``solver/lp.py``/``solver/ilp.py`` pick it up with
:func:`get_budget` — no threading of a handle through ``Problem`` /
``DimensionProblem`` call chains.  With no budget installed
``get_budget()`` returns ``None`` and the solvers stay on their fast
path (one global load + identity check per pivot).

Budgets are cumulative across every solve of one attempt, which is what
distinguishes them from the per-call ``max_nodes`` cap: exceeding
``max_nodes`` raises :class:`~repro.errors.BranchLimitExceeded` and the
scheduler treats that single dimension as infeasible (backtracking
ladder); exhausting a budget raises :class:`SolverTimeout` and aborts
the whole attempt (degradation ladder in the pipeline).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import SolverTimeout

# The monotonic clock is only consulted every this many pivots: a pivot is
# a handful of dict operations, so per-pivot clock reads would dominate.
_DEADLINE_CHECK_INTERVAL = 64


@dataclass(frozen=True)
class SolveBudget:
    """Declarative work allowance for one scheduling attempt.

    ``deadline_s`` is wall-clock seconds from :meth:`start`;
    ``max_pivots`` / ``max_ilp_nodes`` bound the *cumulative* simplex
    pivots and branch-and-bound nodes across all solves of the attempt.
    ``None`` disables the corresponding limit.
    """

    deadline_s: Optional[float] = None
    max_pivots: Optional[int] = None
    max_ilp_nodes: Optional[int] = None

    def start(self) -> "ActiveBudget":
        """Begin the countdown (anchors the deadline to ``monotonic()``)."""
        return ActiveBudget(self)


class ActiveBudget:
    """A started budget: charge work against it, it raises when spent."""

    __slots__ = ("budget", "deadline_at", "pivots", "nodes", "_until_check")

    def __init__(self, budget: SolveBudget):
        self.budget = budget
        self.deadline_at = (None if budget.deadline_s is None
                            else time.monotonic() + budget.deadline_s)
        self.pivots = 0
        self.nodes = 0
        self._until_check = _DEADLINE_CHECK_INTERVAL

    def charge_pivot(self) -> None:
        """Account one simplex pivot (deadline checked every few calls)."""
        self.pivots += 1
        limit = self.budget.max_pivots
        if limit is not None and self.pivots > limit:
            raise SolverTimeout(
                f"pivot budget exhausted ({self.pivots} > {limit})")
        self._until_check -= 1
        if self._until_check <= 0:
            self._until_check = _DEADLINE_CHECK_INTERVAL
            self.check_deadline()

    def charge_node(self) -> None:
        """Account one branch-and-bound node (deadline checked each call)."""
        self.nodes += 1
        limit = self.budget.max_ilp_nodes
        if limit is not None and self.nodes > limit:
            raise SolverTimeout(
                f"node budget exhausted ({self.nodes} > {limit})")
        self.check_deadline()

    def check_deadline(self) -> None:
        if self.deadline_at is not None \
                and time.monotonic() > self.deadline_at:
            raise SolverTimeout(
                f"solve deadline of {self.budget.deadline_s:g}s exceeded")


_current: Optional[ActiveBudget] = None


def get_budget() -> Optional[ActiveBudget]:
    """The ambient active budget, or ``None`` when unbudgeted."""
    return _current


@contextmanager
def use_budget(active: Optional[ActiveBudget]) -> Iterator[
        Optional[ActiveBudget]]:
    """Install ``active`` as the ambient budget for the dynamic extent."""
    global _current
    previous = _current
    _current = active
    try:
        yield active
    finally:
        _current = previous
