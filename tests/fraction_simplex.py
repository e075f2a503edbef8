"""Test-only reference: the two-phase simplex on a ``Fraction`` tableau.

This is the solver ``repro.solver.lp`` ran before its tableau went
fraction-free: every entry is a :class:`fractions.Fraction`, rows are
normalized by dividing through by the pivot, and the pivot rule is Bland's.
The production tableau must take exactly the same pivots, so
``tests/test_lp_pivot_parity.py`` compares the two on random programs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from repro.solver.lp import LinearProgram, LPResult, LPStatus

_F0 = Fraction(0)
_F1 = Fraction(1)


def reference_solve_lp(lp: LinearProgram) -> tuple[LPResult, "_Tableau"]:
    """Solve ``lp`` on the rational tableau; returns the result and the
    tableau, whose ``pivots`` and ``negative_driveouts`` count what the
    solve did."""
    std = _Standardizer(lp)
    tableau = _Tableau(std.rows, std.rhs, std.n_std_vars)
    if not tableau.phase_one(std.row_slack):
        return LPResult(LPStatus.INFEASIBLE), tableau
    status = tableau.phase_two(std.std_objective)
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED), tableau
    x = std.recover(tableau.primal_solution())
    value = sum((c * v for c, v in zip(lp.objective, x)), _F0)
    return (LPResult(LPStatus.OPTIMAL, x, value, basis=list(tableau.basis)),
            tableau)


class _Standardizer:
    """Rewrites a general-form LP into ``A x = b, x >= 0``.

    Each original variable maps to either a shifted non-negative variable, a
    reflected one, or a difference of two non-negative variables; finite
    bounds on the opposite side become extra inequality rows.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        # Mapping for original variable i:
        #   ("shift", j, lo)    x_i = lo + y_j
        #   ("reflect", j, hi)  x_i = hi - y_j
        #   ("free", j, k)      x_i = y_j - y_k
        self.mapping: list[tuple] = []
        self.n_std_vars = 0
        extra_ub: list[tuple[int, Fraction]] = []  # (std var, bound) rows y_j <= b

        for i in range(lp.n_vars):
            lo, hi = lp.lower[i], lp.upper[i]
            if lo is not None:
                j = self._new_var()
                self.mapping.append(("shift", j, lo))
                if hi is not None:
                    extra_ub.append((j, hi - lo))
            elif hi is not None:
                j = self._new_var()
                self.mapping.append(("reflect", j, hi))
            else:
                j = self._new_var()
                k = self._new_var()
                self.mapping.append(("free", j, k))

        # Rows stay sparse (column -> coefficient dicts) end to end; the
        # tableau consumes them directly, so no densify/re-sparsify round trip.
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        # For each row, the slack column usable as an initial basic variable
        # (only when the row was not sign-flipped), or None.
        self.row_slack: list[Optional[int]] = []

        for row, b in zip(lp.a_ub, lp.b_ub):
            coeffs, shift = self._translate(row)
            slack = self._new_var()
            coeffs[slack] = _F1
            self._append(coeffs, b - shift, slack)
        for row, b in zip(lp.a_eq, lp.b_eq):
            coeffs, shift = self._translate(row)
            self._append(coeffs, b - shift, None)
        for j, bound in extra_ub:
            slack = self._new_var()
            self._append({j: _F1, slack: _F1}, bound, slack)

        # Standard-form objective over the y variables.
        obj, self.obj_shift = self._translate(lp.objective)
        self.std_objective = [obj.get(j, _F0) for j in range(self.n_std_vars)]

    def _new_var(self) -> int:
        self.n_std_vars += 1
        return self.n_std_vars - 1

    def _translate(self, row: Sequence[Fraction]) -> tuple[dict[int, Fraction], Fraction]:
        """Express ``row . x`` as ``coeffs . y + shift``."""
        coeffs: dict[int, Fraction] = {}
        shift = _F0
        for i, a in enumerate(row):
            if not a.numerator:
                continue
            kind = self.mapping[i]
            if kind[0] == "shift":
                _, j, lo = kind
                coeffs[j] = coeffs.get(j, _F0) + a
                shift += a * lo
            elif kind[0] == "reflect":
                _, j, hi = kind
                coeffs[j] = coeffs.get(j, _F0) - a
                shift += a * hi
            else:
                _, j, k = kind
                coeffs[j] = coeffs.get(j, _F0) + a
                coeffs[k] = coeffs.get(k, _F0) - a
        return coeffs, shift

    def _append(self, coeffs: dict[int, Fraction], rhs: Fraction,
                slack: Optional[int]) -> None:
        if rhs < 0:
            coeffs = {j: -a for j, a in coeffs.items()}
            rhs = -rhs
            slack = None  # the flipped slack has coefficient -1: unusable
        self.rows.append(coeffs)
        self.rhs.append(rhs)
        self.row_slack.append(slack)

    def recover(self, y: list[Fraction]) -> list[Fraction]:
        """Map a standard-form point back to original variables."""
        x = []
        for kind in self.mapping:
            if kind[0] == "shift":
                _, j, lo = kind
                x.append(lo + y[j])
            elif kind[0] == "reflect":
                _, j, hi = kind
                x.append(hi - y[j])
            else:
                _, j, k = kind
                x.append(y[j] - y[k])
        return x


class _Tableau:
    """Sparse simplex tableau (rows as dicts) with Bland's rule."""

    def __init__(self, rows: list[dict[int, Fraction]], rhs: list[Fraction],
                 n_vars: int):
        self.n_vars = n_vars
        self.n_rows = len(rows)
        # Translation can leave exact-zero entries behind; drop them here so
        # sparsity invariants hold (absent == zero) throughout the pivots.
        self.rows: list[dict[int, Fraction]] = [
            {j: a for j, a in r.items() if a.numerator} for r in rows]
        self.rhs = list(rhs)
        self.basis: list[int] = [-1] * self.n_rows
        self.pivots = 0
        # Pivots on a negative entry while driving artificials out of the
        # basis after phase one.
        self.negative_driveouts = 0

    def phase_one(self, row_slack: Optional[list[Optional[int]]] = None) -> bool:
        """Find a feasible basis; True iff one exists.

        Rows carrying a usable slack column (coefficient +1, nonnegative
        rhs) start with that slack basic — only the remaining rows get
        artificial variables, which usually makes phase one trivial for
        inequality-dominated systems.
        """
        n = self.n_vars
        art_rows = []
        for i in range(self.n_rows):
            slack = row_slack[i] if row_slack else None
            if slack is not None and self.rows[i].get(slack) == 1:
                self.basis[i] = slack
                self._clear_column_except(slack, i)
            else:
                art_rows.append(i)
        if art_rows:
            width = n
            cost: dict[int, Fraction] = {}
            for i in art_rows:
                art = width
                width += 1
                self.rows[i][art] = _F1
                self.basis[i] = art
                cost[art] = _F1
            self._run(cost, width)
            value = sum((self.rhs[i] for i in range(self.n_rows)
                         if self.basis[i] >= n), _F0)
            if value != 0:
                return False
            # Drive artificials out of the basis where possible.
            for i in range(self.n_rows):
                if self.basis[i] >= n:
                    pivot_col = next((j for j in sorted(self.rows[i])
                                      if j < n and self.rows[i][j] != 0), None)
                    if pivot_col is not None:
                        if self.rows[i][pivot_col] < 0:
                            self.negative_driveouts += 1
                        self._pivot(i, pivot_col)
            # Drop artificial columns; rows whose basic variable is still
            # artificial have zero rhs and are redundant.
            keep = [i for i in range(self.n_rows) if self.basis[i] < n]
            self.rows = [{j: a for j, a in self.rows[i].items() if j < n}
                         for i in keep]
            self.rhs = [self.rhs[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
            self.n_rows = len(keep)
        return True

    def _clear_column_except(self, col: int, pivot_row: int) -> None:
        """Make ``col`` a unit column (it already is in typical input, but a
        slack may appear in bound rows added later)."""
        if self.rows[pivot_row].get(col) != 1:
            return
        for i in range(self.n_rows):
            if i != pivot_row and col in self.rows[i]:
                self._eliminate(i, pivot_row, self.rows[i][col])

    def phase_two(self, objective: list[Fraction]) -> LPStatus:
        """Minimize ``objective`` from the current feasible basis."""
        cost = {j: c for j, c in enumerate(objective) if c.numerator}
        return self._run(cost, self.n_vars)

    def _reduced_costs(self, cost: dict[int, Fraction],
                       width: int) -> dict[int, Fraction]:
        # Rows are already B^{-1} A, so reduced = c - sum_i c_B[i] * row_i.
        reduced = dict(cost)
        for i, b in enumerate(self.basis):
            cb = cost.get(b, _F0)
            if cb.numerator:
                for j, a in self.rows[i].items():
                    if j < width:
                        value = reduced.get(j, _F0) - cb * a
                        if value:
                            reduced[j] = value
                        else:
                            reduced.pop(j, None)
        return reduced

    def _run(self, cost: dict[int, Fraction], width: int) -> LPStatus:
        basis_set = set(self.basis)
        # Reduced costs are computed once and then maintained across pivots:
        # after pivoting on (row r, col e), r'_j = r_j - r_e * a'_rj where
        # a'_r is the NEW (normalized) pivot row.  This is the exact algebraic
        # identity for the price update, so the entering-column choices (and
        # hence every pivot) match the full recomputation bit for bit.
        reduced = self._reduced_costs(cost, width)
        while True:
            # Bland: smallest eligible index.  ``v.numerator < 0`` is the
            # sign of the Fraction (denominators are always positive) —
            # an int compare instead of a rational comparison.
            entering = min(
                (j for j, v in reduced.items()
                 if v.numerator < 0 and j not in basis_set),
                default=None)
            if entering is None:
                return LPStatus.OPTIMAL
            # Ratio test with Bland's tie-break on the leaving basic variable.
            leaving = None
            best = None
            for i in range(self.n_rows):
                a = self.rows[i].get(entering)
                if a is not None and a.numerator > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                return LPStatus.UNBOUNDED
            basis_set.discard(self.basis[leaving])
            self._pivot(leaving, entering)
            basis_set.add(entering)
            r_e = reduced[entering]
            for j, a in self.rows[leaving].items():
                if j < width:
                    value = reduced.get(j, _F0) - r_e * a
                    if value:
                        reduced[j] = value
                    else:
                        reduced.pop(j, None)

    def _pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        pivot_row = self.rows[row]
        inv = 1 / pivot_row[col]
        if inv != 1:
            self.rows[row] = pivot_row = {j: a * inv for j, a in pivot_row.items()}
            self.rhs[row] *= inv
        for i in range(self.n_rows):
            if i != row:
                factor = self.rows[i].get(col)
                if factor:
                    self._eliminate(i, row, factor)
        self.basis[row] = col

    def _eliminate(self, target: int, source: int, factor: Fraction) -> None:
        """row[target] -= factor * row[source]; rhs too."""
        src = self.rows[source]
        dst = self.rows[target]
        if factor == 1:  # +/-1 factors dominate; skip the multiply
            for j, a in src.items():
                value = dst.get(j, _F0) - a
                if value:
                    dst[j] = value
                else:
                    dst.pop(j, None)
        elif factor == -1:
            for j, a in src.items():
                value = dst.get(j, _F0) + a
                if value:
                    dst[j] = value
                else:
                    dst.pop(j, None)
        else:
            for j, a in src.items():
                value = dst.get(j, _F0) - factor * a
                if value:
                    dst[j] = value
                else:
                    dst.pop(j, None)
        self.rhs[target] -= factor * self.rhs[source]

    def primal_solution(self) -> list[Fraction]:
        x = [_F0] * self.n_vars
        for i, b in enumerate(self.basis):
            if b < self.n_vars:
                x[b] = self.rhs[i]
        return x
