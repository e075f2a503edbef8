"""Two-phase primal simplex over exact rationals, computed fraction-free.

The solver accepts problems in the general form::

    minimize    c . x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lo_i <= x_i <= hi_i      (either bound may be absent)

and reduces them internally to standard form (equalities over non-negative
variables) before running a tableau simplex with Bland's anti-cycling rule.
Programs come in and results go out as canonical exact scalars (``int``
when whole, :class:`fractions.Fraction` otherwise; see
:mod:`repro.linalg.rational`), so results are exact.

Inside, the tableau holds no fractions.  As in isl's ``isl_tab``, each row
is a sparse dict of Python ``int`` numerators plus an ``int`` right-hand
side over one positive row denominator: entry ``j`` of row ``i`` is
``rows[i][j] / den[i]``.  The basic column's numerator equals the row
denominator (its value is 1).  After every pivot and elimination the row is
divided by the gcd of its numerators, its rhs and its denominator, which
keeps the integers as small as the rationals they stand for.  Reduced costs
are kept the same way: integer numerators over one positive denominator.

Every pivot decision is an exact comparison, so the choices match the
textbook rational tableau bit for bit: the entering column needs only the
sign of a reduced cost, and the ratio test ``rhs_i / a_ie`` cancels the row
denominator, so ratios compare by integer cross-multiplication (with the
same tie-break on the basic variable's index).  The same pivots give the
same final basis and the same primal point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from repro.linalg.rational import Rat, div, frac
from repro.obs.runtime import get_obs
from repro.solver.budget import get_budget


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """A minimization LP in general (inequality/equality/bounds) form."""

    objective: list[Rat]
    a_ub: list[list[Rat]] = field(default_factory=list)
    b_ub: list[Rat] = field(default_factory=list)
    a_eq: list[list[Rat]] = field(default_factory=list)
    b_eq: list[Rat] = field(default_factory=list)
    lower: list[Optional[Rat]] = field(default_factory=list)
    upper: list[Optional[Rat]] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.objective)
        self.objective = [frac(x) for x in self.objective]
        self.a_ub = [[frac(x) for x in row] for row in self.a_ub]
        self.b_ub = [frac(x) for x in self.b_ub]
        self.a_eq = [[frac(x) for x in row] for row in self.a_eq]
        self.b_eq = [frac(x) for x in self.b_eq]
        if not self.lower:
            self.lower = [0] * n
        if not self.upper:
            self.upper = [None] * n
        self.lower = [None if lo is None else frac(lo) for lo in self.lower]
        self.upper = [None if hi is None else frac(hi) for hi in self.upper]
        for row in self.a_ub + self.a_eq:
            if len(row) != n:
                raise ValueError("constraint row length does not match objective")
        if len(self.b_ub) != len(self.a_ub) or len(self.b_eq) != len(self.a_eq):
            raise ValueError("rhs length does not match constraint matrix")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bounds length does not match variable count")
        self._int_rows = None

    @classmethod
    def _trusted(cls, objective, a_ub, b_ub, a_eq, b_eq, lower, upper,
                 int_rows=None) -> "LinearProgram":
        """Constructor for callers that guarantee the invariants.

        ``__post_init__`` coerces and validates every matrix entry — right
        for hand-written programs, pure overhead for machine-built ones.
        All entries must already be canonical scalars — ``int`` when whole,
        ``Fraction`` only with a denominator greater than 1, as
        :func:`repro.linalg.rational.frac` makes them (bounds may be None) —
        with consistent shapes.  ``int_rows``, when given, must be
        :func:`integer_row` of every ``a_ub`` row, then every ``a_eq`` row.
        """
        lp = object.__new__(cls)
        lp.objective = objective
        lp.a_ub = a_ub
        lp.b_ub = b_ub
        lp.a_eq = a_eq
        lp.b_eq = b_eq
        lp.lower = lower
        lp.upper = upper
        lp._int_rows = int_rows
        return lp

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def with_bounds(self, lower: list, upper: list) -> "LinearProgram":
        """This program under other variable bounds.

        The constraint matrix and its integer rows are shared, not copied:
        solvers treat them as read-only.
        """
        return LinearProgram._trusted(
            self.objective, self.a_ub, self.b_ub, self.a_eq, self.b_eq,
            lower, upper, self.integer_rows())

    def with_objective(self, objective: list[Rat]) -> "LinearProgram":
        """This program with another objective (canonical scalars), sharing
        the constraint matrix as :meth:`with_bounds` does."""
        return LinearProgram._trusted(
            objective, self.a_ub, self.b_ub, self.a_eq, self.b_eq,
            self.lower, self.upper, self.integer_rows())

    def integer_rows(self) -> list[tuple[int, list[tuple[int, int]]]]:
        """:func:`integer_row` of every ``a_ub`` row, then every ``a_eq``
        row; computed once per matrix and shared with derived programs."""
        if self._int_rows is None:
            self._int_rows = [integer_row(_nonzero(row))
                              for row in self.a_ub + self.a_eq]
        return self._int_rows


def _nonzero(row: list[Rat]) -> list[tuple[int, Rat]]:
    return [(j, a) for j, a in enumerate(row) if a]


def integer_row(terms: list[tuple[int, Rat]]
                ) -> tuple[int, list[tuple[int, int]]]:
    """A row's ``(column, coefficient)`` terms as ``(den, [(column,
    numerator), ...])``: integer numerators over the lcm of the
    coefficients' denominators, zero terms dropped."""
    for _, a in terms:
        if type(a) is not int:
            break
    else:  # all whole: the terms are their own numerators
        return 1, [(j, a) for j, a in terms if a]
    den = 1
    for _, a in terms:
        d = a.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return 1, [(j, a.numerator) for j, a in terms if a.numerator]
    return den, [(j, a.numerator * (den // a.denominator))
                 for j, a in terms if a.numerator]


@dataclass
class LPResult:
    """Result of an LP solve: status, primal point and objective value.

    ``basis`` is the final simplex basis (standard-form column indices, one
    per tableau row).  It is diagnostic state; it is never replayed into a
    later solve, so results stay pivot-for-pivot reproducible.
    """

    status: LPStatus
    x: Optional[list[Rat]] = None
    objective: Optional[Rat] = None
    basis: Optional[list[int]] = None


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` exactly; see :class:`LinearProgram` for the form."""
    std = _Standardizer(lp)
    tableau = _Tableau(std.rows, std.rhs, std.den, std.n_std_vars)
    try:
        if not tableau.phase_one(std.row_slack):
            return LPResult(LPStatus.INFEASIBLE)
        status = tableau.phase_two(std.objective, std.objective_den)
        if status is LPStatus.UNBOUNDED:
            return LPResult(LPStatus.UNBOUNDED)
        x_std = tableau.primal_solution()
        x = std.recover(x_std)
        value = frac(sum(c * v for c, v in zip(lp.objective, x)))
        return LPResult(LPStatus.OPTIMAL, x, value, basis=list(tableau.basis))
    finally:
        metrics = get_obs().metrics
        if metrics.enabled:
            metrics.count("solver.lp_solves")
            metrics.count("solver.pivots", tableau.pivots)


# Kinds of the original-to-standard variable mapping.
_SHIFT, _REFLECT, _FREE = range(3)


class _Standardizer:
    """Rewrites a general-form LP into ``A y = b, y >= 0`` over integers.

    Each original variable maps to either a shifted non-negative variable, a
    reflected one, or a difference of two non-negative variables; finite
    bounds on the opposite side become extra inequality rows.  Every row is
    lowered straight from the program's sparse integer rows
    (:meth:`LinearProgram.integer_rows`) to the tableau's representation:
    ``int`` numerators, an ``int`` rhs made non-negative, and the row
    denominator.
    """

    def __init__(self, lp: LinearProgram):
        # Mapping for original variable i:
        #   (_SHIFT, j, lo)    x_i = lo + y_j
        #   (_REFLECT, j, hi)  x_i = hi - y_j
        #   (_FREE, j, k)      x_i = y_j - y_k
        self.mapping: list[tuple] = []
        self.n_std_vars = 0
        extra_ub: list[tuple[int, Rat]] = []  # (std var, bound) rows y_j <= b

        for lo, hi in zip(lp.lower, lp.upper):
            j = self._new_var()
            if lo is not None:
                self.mapping.append((_SHIFT, j, lo))
                if hi is not None:
                    extra_ub.append((j, hi - lo))
            elif hi is not None:
                self.mapping.append((_REFLECT, j, hi))
            else:
                self.mapping.append((_FREE, j, self._new_var()))

        self.rows: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.den: list[int] = []
        # For each row, the slack column usable as an initial basic variable
        # (only when the row was not sign-flipped), or None.  A slack is a
        # fresh column of its own row only, so it is already a unit column.
        self.row_slack: list[Optional[int]] = []

        int_rows = lp.integer_rows()
        n_ub = len(lp.b_ub)
        for (den, terms), b in zip(int_rows, lp.b_ub):
            coeffs, rhs, den = self._translate(den, terms, b)
            slack = self._new_var()
            coeffs[slack] = den
            self._append(coeffs, rhs, den, slack)
        for (den, terms), b in zip(int_rows[n_ub:], lp.b_eq):
            coeffs, rhs, den = self._translate(den, terms, b)
            self._append(coeffs, rhs, den, None)
        for j, bound in extra_ub:
            slack = self._new_var()
            den = bound.denominator
            self._append({j: den, slack: den}, bound.numerator, den, slack)

        # Standard-form objective over the y variables; its constant shift
        # does not move the optimum, and the caller re-evaluates the
        # objective on the recovered point.
        den, terms = integer_row(_nonzero(lp.objective))
        self.objective, _, self.objective_den = self._translate(
            den, terms, 0)

    def _new_var(self) -> int:
        self.n_std_vars += 1
        return self.n_std_vars - 1

    def _translate(self, den: int, terms: list[tuple[int, int]],
                   b: Rat) -> tuple[dict[int, int], int, int]:
        """Rewrite ``(terms . x) / den = b`` over the standard variables as
        ``(coeffs . y) / den' = rhs / den'``.  ``den'`` is ``den`` unless
        ``b`` or a bound brings in a new denominator."""
        mapping = self.mapping
        coeffs: dict[int, int] = {}
        shift = 0  # sum of numerator * bound over the bounded variables
        for i, n in terms:
            kind, j, other = mapping[i]
            if kind == _FREE:
                coeffs[j] = n
                coeffs[other] = -n
            else:
                coeffs[j] = n if kind == _SHIFT else -n
                if other:
                    shift += n * other
        if b.denominator == 1 and type(shift) is int:
            return coeffs, b.numerator * den - shift, den
        rhs = b * den - shift
        scale = rhs.denominator
        if scale != 1:
            coeffs = {j: n * scale for j, n in coeffs.items()}
        return coeffs, rhs.numerator, den * scale

    def _append(self, coeffs: dict[int, int], rhs: int, den: int,
                slack: Optional[int]) -> None:
        if rhs < 0:
            coeffs = {j: -a for j, a in coeffs.items()}
            rhs = -rhs
            slack = None  # the flipped slack has coefficient -1: unusable
        self.rows.append(coeffs)
        self.rhs.append(rhs)
        self.den.append(den)
        self.row_slack.append(slack)

    def recover(self, y: list[Rat]) -> list[Rat]:
        """Map a standard-form point back to original variables."""
        x = []
        for kind, j, other in self.mapping:
            if kind == _SHIFT:
                x.append(frac(other + y[j]))
            elif kind == _REFLECT:
                x.append(frac(other - y[j]))
            else:
                x.append(frac(y[j] - y[other]))
        return x


class _Tableau:
    """Fraction-free sparse simplex tableau with Bland's rule.

    Row ``i`` is ``rows[i]`` (column -> ``int`` numerator, zeros absent) and
    ``rhs[i]`` over the positive denominator ``den[i]``.
    """

    def __init__(self, rows: list[dict[int, int]], rhs: list[int],
                 den: list[int], n_vars: int):
        self.n_vars = n_vars
        self.n_rows = len(rows)
        self.rows = rows
        self.rhs = rhs
        self.den = den
        self.basis: list[int] = [-1] * self.n_rows
        self.pivots = 0

    def phase_one(self, row_slack: list[Optional[int]]) -> bool:
        """Find a feasible basis; True iff one exists.

        Rows carrying a usable slack column (coefficient +1, nonnegative
        rhs) start with that slack basic — only the remaining rows get
        artificial variables, which usually makes phase one trivial for
        inequality-dominated systems.
        """
        n = self.n_vars
        art_rows = []
        for i, slack in enumerate(row_slack):
            if slack is not None:
                self.basis[i] = slack
            else:
                art_rows.append(i)
        if art_rows:
            width = n
            cost: dict[int, int] = {}
            for i in art_rows:
                art = width
                width += 1
                self.rows[i][art] = self.den[i]
                self.basis[i] = art
                cost[art] = 1
            self._run(cost, 1, width)
            # Every rhs stays non-negative, so the artificials' sum is zero
            # iff each of them is.
            if any(self.rhs[i] for i in range(self.n_rows)
                   if self.basis[i] >= n):
                return False
            # Drive artificials out of the basis where possible.
            for i in range(self.n_rows):
                if self.basis[i] >= n:
                    pivot_col = next((j for j in sorted(self.rows[i])
                                      if j < n), None)
                    if pivot_col is not None:
                        self._pivot(i, pivot_col)
            # Drop artificial columns; rows whose basic variable is still
            # artificial have zero rhs and are redundant.
            keep = [i for i in range(self.n_rows) if self.basis[i] < n]
            self.rows = [{j: a for j, a in self.rows[i].items() if j < n}
                         for i in keep]
            self.rhs = [self.rhs[i] for i in keep]
            self.den = [self.den[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
            self.n_rows = len(keep)
        return True

    def phase_two(self, objective: dict[int, int], den: int) -> LPStatus:
        """Minimize ``objective / den`` from the current feasible basis."""
        return self._run(objective, den, self.n_vars)

    def _reduced_costs(self, cost: dict[int, int], cost_den: int,
                       width: int) -> tuple[dict[int, int], int]:
        # Rows are already B^{-1} A, so reduced = c - sum_i c_B[i] * row_i,
        # accumulated over the running common denominator ``rden``.
        reduced = dict(cost)
        rden = cost_den
        for i, b in enumerate(self.basis):
            cb = cost.get(b)
            if cb:
                row_den = cost_den * self.den[i]
                g = gcd(rden, row_den)
                scale = row_den // g
                if scale != 1:
                    for j in reduced:
                        reduced[j] *= scale
                    rden *= scale
                m = cb * (rden // row_den)
                for j, a in self.rows[i].items():
                    if j < width:
                        value = reduced.get(j, 0) - m * a
                        if value:
                            reduced[j] = value
                        else:
                            reduced.pop(j, None)
        return reduced, rden

    def _run(self, cost: dict[int, int], cost_den: int,
             width: int) -> LPStatus:
        rows = self.rows
        rhs = self.rhs
        basis = self.basis
        basis_set = set(basis)
        # Reduced costs are computed once and then maintained across pivots:
        # after pivoting on (row r, col e), r'_j = r_j - r_e * a'_rj where
        # a'_r is the NEW (normalized) pivot row.  This is the exact algebraic
        # identity for the price update, so the entering-column choices (and
        # hence every pivot) match the full recomputation bit for bit.
        reduced, rden = self._reduced_costs(cost, cost_den, width)
        while True:
            # Bland: smallest eligible index.  The denominator is positive,
            # so a numerator's sign is the reduced cost's sign.
            entering = min(
                (j for j, v in reduced.items()
                 if v < 0 and j not in basis_set),
                default=None)
            if entering is None:
                return LPStatus.OPTIMAL
            # Ratio test with Bland's tie-break on the leaving basic variable.
            # rhs_i / a_ie: the row denominators cancel, and both
            # denominators of the cross-multiplied compare are positive.
            leaving = None
            best_rhs = best_a = 0
            for i in range(self.n_rows):
                a = rows[i].get(entering)
                if a is not None and a > 0:
                    if leaving is None:
                        leaving, best_rhs, best_a = i, rhs[i], a
                        continue
                    lhs = rhs[i] * best_a
                    other = best_rhs * a
                    if lhs < other or (
                            lhs == other and basis[i] < basis[leaving]):
                        leaving, best_rhs, best_a = i, rhs[i], a
            if leaving is None:
                return LPStatus.UNBOUNDED
            basis_set.discard(basis[leaving])
            self._pivot(leaving, entering)
            basis_set.add(entering)
            # reduced / rden -= (r_e / rden) * (row / den) over rden * den.
            r_e = reduced[entering]
            den = self.den[leaving]
            if den != 1:
                for j in reduced:
                    reduced[j] *= den
                rden *= den
            for j, a in rows[leaving].items():
                if j < width:
                    value = reduced.get(j, 0) - r_e * a
                    if value:
                        reduced[j] = value
                    else:
                        reduced.pop(j, None)
            if rden != 1:
                g = gcd(rden, *reduced.values())
                if g != 1:
                    for j in reduced:
                        reduced[j] //= g
                    rden //= g

    def _pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        budget = get_budget()
        if budget is not None:
            budget.charge_pivot()
        rows = self.rows
        pivot = rows[row][col]
        if pivot != self.den[row]:
            # Divide the row by its pivot entry: the numerators stay, the
            # pivot numerator becomes the (positive) denominator.
            if pivot < 0:
                rows[row] = {j: -a for j, a in rows[row].items()}
                self.rhs[row] = -self.rhs[row]
                pivot = -pivot
            self.den[row] = pivot
            self._normalize(row)
        for i in range(self.n_rows):
            if i != row:
                factor = rows[i].get(col)
                if factor:
                    self._eliminate(i, row, factor)
        self.basis[row] = col

    def _eliminate(self, target: int, source: int, factor: int) -> None:
        """row[target] -= (factor / den[target]) * row[source], where
        ``row[source]`` has value 1 in the eliminated column; rhs too."""
        src = self.rows[source]
        dst = self.rows[target]
        scale = self.den[source]
        if scale != 1:  # bring the target onto den[target] * den[source]
            for j in dst:
                dst[j] *= scale
            self.rhs[target] *= scale
            self.den[target] *= scale
        if factor == 1:  # +/-1 factors dominate; skip the multiply
            for j, a in src.items():
                value = dst.get(j, 0) - a
                if value:
                    dst[j] = value
                else:
                    dst.pop(j, None)
        elif factor == -1:
            for j, a in src.items():
                value = dst.get(j, 0) + a
                if value:
                    dst[j] = value
                else:
                    dst.pop(j, None)
        else:
            for j, a in src.items():
                value = dst.get(j, 0) - factor * a
                if value:
                    dst[j] = value
                else:
                    dst.pop(j, None)
        self.rhs[target] -= factor * self.rhs[source]
        self._normalize(target)

    def _normalize(self, i: int) -> None:
        """Divide row ``i`` by the gcd of its numerators, rhs and
        denominator (a no-op while the denominator is 1)."""
        den = self.den[i]
        if den == 1:
            return
        row = self.rows[i]
        g = gcd(den, self.rhs[i], *row.values())
        if g != 1:
            self.rows[i] = {j: a // g for j, a in row.items()}
            self.rhs[i] //= g
            self.den[i] = den // g

    def primal_solution(self) -> list[Rat]:
        x = [0] * self.n_vars
        for i, b in enumerate(self.basis):
            if b < self.n_vars:
                x[b] = div(self.rhs[i], self.den[i])
        return x
