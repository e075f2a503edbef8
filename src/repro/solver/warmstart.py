"""Warm-start handles: reuse of prior solver results that provably cannot
change any answer.

A :class:`WarmStartHandle` captures what a finished ``Problem.solve`` knew:
the final variable assignment (the branch-and-bound incumbent).  The *only*
reuse mechanism is the incumbent strict bound:
when a candidate assignment is verified feasible and integral on the next
problem, its objective value ``V`` is handed to branch and bound, which may
then discard nodes whose relaxation is *strictly* worse than ``V``.

Why this is bitwise-safe (sketch; the parity property test and the tier-1
runs under the ``cold_solver`` fixture, which switches every reuse path
off, enforce it empirically):

* every subtree the extra prune removes has relaxation value ``> V`` and
  hence contains only integral points worse than the optimum (which is
  ``<= V`` because a feasible point of value ``V`` exists) — removing it
  cannot remove the returned point;
* the cold search never prunes a node with relaxation ``<= V`` before its
  own incumbent reaches ``<= V``, so the first node where the cold search
  accepts an incumbent of value ``<= V`` is visited by the warm search too,
  and from there the two searches carry identical state;
* the candidate is *never* seeded as the incumbent itself — doing so could
  win objective ties against the point the cold depth-first order finds
  first and return a different (equally optimal) assignment.

No simplex basis is kept: re-starting phase 2 from a foreign basis changes
the pivot path and may land on a different tie vertex, which would break
golden files.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.linalg.rational import Rat, frac

#: Most-recent candidates kept per handle; feasibility checks are O(nnz) so
#: a few candidates cost far less than one saved branch-and-bound node.
MAX_CANDIDATES = 3


class WarmStartHandle:
    """Captured state of solved problems, offered to subsequent solves."""

    __slots__ = ("candidates",)

    def __init__(self):
        #: Most-recent-first full variable assignments of prior optima.
        self.candidates: list[dict[str, Rat]] = []

    def offer(self, assignment: Optional[dict[str, Rat]]) -> None:
        """Record a solved assignment."""
        if assignment:
            self.candidates = ([dict(assignment)]
                               + [c for c in self.candidates
                                  if c != assignment])[:MAX_CANDIDATES]

    def __bool__(self) -> bool:
        return bool(self.candidates)

    @staticmethod
    def merged(*handles: Optional["WarmStartHandle"]) -> "WarmStartHandle":
        """Combine several handles (earlier arguments take precedence)."""
        merged = WarmStartHandle()
        for handle in reversed([h for h in handles if h]):
            for candidate in reversed(handle.candidates):
                merged.offer(candidate)
        return merged


class WarmStartPool:
    """Depth-keyed warm-start handles shared across sibling solve scenarios.

    One pool is installed per operator evaluation (and per pipeline compile
    when no wider scope exists): the four variants, their degradation rungs,
    and the per-cluster sub-kernels of one operator pose closely related
    dimension problems over overlapping variable sets, so an accepted
    solution at depth ``d`` of one scenario is frequently feasible — and
    hence a valid incumbent bound — at depth ``d`` of the next.  Candidates
    that do not cover a problem's variables or violate its constraints are
    filtered by :func:`incumbent_bound`, so sharing is always safe.
    """

    __slots__ = ("_handles",)

    def __init__(self):
        self._handles: dict[int, WarmStartHandle] = {}

    def handle(self, depth: int) -> WarmStartHandle:
        """The (auto-created) shared handle for dimension ``depth``."""
        handle = self._handles.get(depth)
        if handle is None:
            handle = self._handles[depth] = WarmStartHandle()
        return handle

    def peek(self, depth: int) -> Optional[WarmStartHandle]:
        """The shared handle for ``depth`` if it exists, else ``None``."""
        return self._handles.get(depth)


_current_pool: Optional[WarmStartPool] = None


def get_warm_pool() -> Optional[WarmStartPool]:
    """The ambient warm-start pool, or ``None`` when sharing is off."""
    return _current_pool


@contextmanager
def use_warm_pool(pool: Optional[WarmStartPool]) -> Iterator[
        Optional[WarmStartPool]]:
    """Install ``pool`` as the ambient warm-start pool for the dynamic
    extent (mirrors :func:`repro.solver.dedup.use_solve_cache`)."""
    global _current_pool
    previous = _current_pool
    _current_pool = pool
    try:
        yield pool
    finally:
        _current_pool = previous


def incumbent_bound(problem, objective,
                    handle: Optional[WarmStartHandle]) -> Optional[Rat]:
    """Objective value of the first handle candidate feasible on ``problem``.

    ``problem`` is a (typically presolve-reduced) ``Problem``; a candidate is
    usable only when it assigns *every* variable of the problem, respects all
    bounds and integrality flags, and satisfies every constraint.  Returns
    ``None`` when no candidate qualifies (or no objective is given — with a
    zero objective the strict prune can never fire, so checking would be
    wasted work).
    """
    if handle is None or objective is None or not handle.candidates:
        return None
    order = problem.variables
    for candidate in handle.candidates:
        restricted = {}
        usable = True
        for name in order:
            value = candidate.get(name)
            if value is None:
                usable = False
                break
            restricted[name] = value
        if not usable:
            continue
        if not _respects_declarations(problem, restricted):
            continue
        if all(c.satisfied_by(restricted) for c in problem.constraints):
            return objective.evaluate(restricted)
    return None


def _respects_declarations(problem, assignment: dict[str, Rat]) -> bool:
    for name, value in assignment.items():
        if problem._integer[name] and frac(value).denominator != 1:
            return False
        lo = problem._lower[name]
        if lo is not None and value < lo:
            return False
        hi = problem._upper[name]
        if hi is not None and value > hi:
            return False
    return True
