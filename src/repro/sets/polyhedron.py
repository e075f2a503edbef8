"""Polyhedra over named dimensions.

A :class:`Polyhedron` is a conjunction of affine constraints (built with the
:class:`repro.solver.problem.LinExpr` DSL) over an ordered list of named
dimensions.  It supports the operations the polyhedral stack needs:

* emptiness testing (integer, with a safe rational fallback),
* dimension elimination (exact substitution through equalities, otherwise
  Fourier–Motzkin),
* bound extraction for code generation,
* renaming / substitution / intersection.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.linalg.rational import Rat, frac
from repro.memo import Memo
from repro.obs.logutil import logger
from repro.obs.runtime import get_obs
from repro.solver.ilp import BranchLimitExceeded, integer_feasible
from repro.solver.lp import LinearProgram, LPStatus, solve_lp
from repro.solver.problem import Constraint, LinExpr, lower_constraints, var

# Memoized emptiness answers, keyed by canonical form.  Process-wide: its
# counters depend on what the process evaluated before (see DESIGN.md).
EMPTINESS_MEMO = Memo("cache.emptiness", 50_000)


class Polyhedron:
    """A conjunction of affine constraints over named dimensions."""

    def __init__(self, dims: Sequence[str], constraints: Iterable[Constraint] = ()):
        self.dims: list[str] = list(dims)
        known = set(self.dims)
        if len(known) != len(self.dims):
            raise ValueError(f"duplicate dimensions in {self.dims}")
        self.constraints: list[Constraint] = []
        self._extend(constraints, known)

    def _extend(self, constraints: Iterable[Constraint],
                known: set[str]) -> None:
        """Append ``constraints``, each checked to use only ``known``
        (this set's dimensions)."""
        for c in constraints:
            extra = c.expr.coeffs.keys() - known
            if extra:
                raise ValueError(
                    f"constraint uses unknown dimensions {sorted(extra)}")
            self.constraints.append(c)

    # -- construction -------------------------------------------------------

    @classmethod
    def universe(cls, dims: Sequence[str]) -> "Polyhedron":
        """The unconstrained set over ``dims``."""
        return cls(dims)

    def copy(self) -> "Polyhedron":
        """An independent copy; the source's constraints were checked when
        they entered it, so they are not checked again."""
        out = object.__new__(Polyhedron)
        out.dims = list(self.dims)
        out.constraints = list(self.constraints)
        return out

    def with_constraints(self, constraints: Iterable[Constraint]) -> "Polyhedron":
        """A new polyhedron with extra constraints added."""
        out = self.copy()
        out._extend(constraints, set(self.dims))
        return out

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Conjunction; the other polyhedron's dims must be a subset."""
        missing = set(other.dims) - set(self.dims)
        if missing:
            raise ValueError(f"cannot intersect: unknown dims {sorted(missing)}")
        return self.with_constraints(other.constraints)

    def rename(self, mapping: dict[str, str]) -> "Polyhedron":
        """Rename dimensions according to ``mapping`` (identity elsewhere)."""
        new_dims = [mapping.get(d, d) for d in self.dims]
        new_constraints = []
        for c in self.constraints:
            coeffs = {mapping.get(n, n): v for n, v in c.expr.coeffs.items()}
            new_constraints.append(
                Constraint(LinExpr._raw(coeffs, c.expr.const), c.sense))
        return Polyhedron(new_dims, new_constraints)

    # -- queries --------------------------------------------------------------

    def _to_lp(self) -> LinearProgram:
        """The set as a zero-objective program over free variables."""
        width = len(self.dims)
        a_ub, b_ub, a_eq, b_eq, int_rows = lower_constraints(
            self.constraints, {d: i for i, d in enumerate(self.dims)}, width)
        # Constraint coefficients are canonical scalars (LinExpr coerces on
        # entry), so the re-validating public constructor is skipped.
        return LinearProgram._trusted(
            [0] * width, a_ub, b_ub, a_eq, b_eq,
            [None] * width, [None] * width, int_rows)

    def canonical(self) -> tuple:
        """A hashable canonical form (dims + sorted constraint signatures).

        Coefficients are canonical scalars, a unique representation, so
        the signatures hold them as they are."""
        sigs = sorted((c.sense, *c.expr.signature()) for c in self.constraints)
        return (tuple(self.dims), tuple(sigs))

    def is_empty(self, integer: bool = True, max_nodes: int = 2000) -> bool:
        """True iff the set contains no (integer) point.

        When the branch-and-bound node budget is exhausted on an unbounded
        integer problem we fall back to the rational answer, which can only
        report *non*-empty for an integer-empty set — a safe over-
        approximation for dependence analysis (at worst a spurious
        dependence is kept).  Results are memoized on the canonical form:
        the scheduler asks the same satisfaction questions many times.
        """
        key = (self.canonical(), integer)
        cached = EMPTINESS_MEMO.get(key)
        if cached is not None:
            return cached
        result = self._is_empty_uncached(integer, max_nodes)
        EMPTINESS_MEMO.put(key, result)
        return result

    def _is_empty_uncached(self, integer: bool, max_nodes: int) -> bool:
        lp = self._to_lp()  # zero objective: this is also the ILP's root
        result = solve_lp(lp)
        if result.status is LPStatus.INFEASIBLE:
            return True
        if not integer:
            return False
        try:
            return not integer_feasible(lp, max_nodes=max_nodes, root=result)
        except BranchLimitExceeded:
            # Rational-feasible but the integer search blew its node cap:
            # conservatively report non-empty (at worst a spurious
            # dependence survives).  Surface the give-up instead of
            # swallowing it silently — a set that triggers this repeatedly
            # is a scheduler-performance smell.
            obs = get_obs()
            if obs.metrics.enabled:
                obs.metrics.count("sets.emptiness_branch_limit")
            logger.warning(
                "emptiness test hit the %d-node branch-and-bound cap on a "
                "%d-dim set over %s (%d constraints); assuming non-empty",
                max_nodes, len(self.dims), self.dims, len(self.constraints))
            return False

    def contains(self, point: dict[str, Rat]) -> bool:
        """True iff ``point`` (a full assignment) satisfies every constraint."""
        missing = set(self.dims) - set(point)
        if missing:
            raise KeyError(f"point misses dimensions {sorted(missing)}")
        return all(c.satisfied_by(point) for c in self.constraints)

    def sample(self, box: int = 1000) -> Optional[dict[str, Rat]]:
        """An integer point with all coordinates in ``[-box, box]`` or None."""
        box = frac(box)
        boxed = self._to_lp().with_bounds([-box] * len(self.dims),
                                          [box] * len(self.dims))
        from repro.solver.ilp import solve_ilp
        result = solve_ilp(boxed)
        if result.status is not LPStatus.OPTIMAL:
            return None
        return dict(zip(self.dims, result.x))

    # -- elimination ------------------------------------------------------------

    def _normalized(self) -> list[LinExpr]:
        """All constraints as a list of ``expr >= 0`` forms (equalities give
        two opposite inequalities)."""
        out = []
        for c in self.constraints:
            if c.sense == ">=":
                out.append(c.expr)
            elif c.sense == "<=":
                out.append(-c.expr)
            else:
                out.append(c.expr)
                out.append(-c.expr)
        return out

    def eliminate(self, dim: str) -> "Polyhedron":
        """Project out ``dim``.

        If an equality constraint defines ``dim`` it is substituted exactly;
        otherwise Fourier–Motzkin combines lower and upper bounds.  The
        result is the rational shadow (exact for our use: loop bound
        computation on full-dimensional schedules).
        """
        if dim not in self.dims:
            raise ValueError(f"unknown dimension {dim!r}")

        # Exact substitution through an equality when available.
        for c in self.constraints:
            if c.sense == "==" and c.expr.coeffs.get(dim):
                substitution = c.expr.solved_for(dim)
                new_constraints = [
                    Constraint(other.expr.substitute(dim, substitution),
                               other.sense)
                    for other in self.constraints if other is not c]
                dims = [d for d in self.dims if d != dim]
                return Polyhedron(dims, new_constraints)

        lowers, uppers, others = [], [], []
        for expr in self._normalized():
            k = expr.coeffs.get(dim, 0)
            if k == 0:
                others.append(Constraint(expr, ">="))
            elif k > 0:
                lowers.append(expr.solved_for(dim))
            else:
                uppers.append(expr.solved_for(dim))
        combined = list(others)
        for lo in lowers:
            for hi in uppers:
                combined.append(Constraint(hi - lo, ">="))
        dims = [d for d in self.dims if d != dim]
        return Polyhedron(dims, combined)

    def eliminate_all(self, dims: Sequence[str]) -> "Polyhedron":
        """Project out several dimensions in order."""
        out = self
        for d in dims:
            out = out.eliminate(d)
        return out

    def bounds_of(self, dim: str) -> tuple[list[LinExpr], list[LinExpr]]:
        """Lower and upper affine bounds on ``dim`` from constraints that
        mention only ``dim`` and other dimensions of this set.

        Returns ``(lowers, uppers)``: lists of expressions over the other
        dimensions such that ``max(lowers) <= dim <= min(uppers)``.
        """
        lowers, uppers = [], []
        for expr in self._normalized():
            k = expr.coeffs.get(dim, 0)
            if k > 0:
                lowers.append(expr.solved_for(dim))
            elif k < 0:
                uppers.append(expr.solved_for(dim))
        return lowers, uppers

    # -- misc ----------------------------------------------------------------------

    def __repr__(self):
        body = " and ".join(repr(c) for c in self.constraints) or "true"
        return f"Polyhedron[{', '.join(self.dims)}]({body})"

    def __eq__(self, other):
        return (isinstance(other, Polyhedron)
                and self.dims == other.dims
                and self.constraints == other.constraints)
