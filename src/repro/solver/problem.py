"""Named-variable problem builder with a small linear-expression DSL.

The constraint builders in :mod:`repro.schedule` manipulate dozens of named
unknowns (schedule coefficients per statement and dimension, Farkas
multipliers, bound coefficients).  Building raw coefficient rows by hand is
error-prone, so this module provides:

* :class:`LinExpr` — an affine expression ``sum(c_i * v_i) + const`` over
  named variables, supporting ``+ - *`` and comparisons that yield
  :class:`Constraint` objects.
* :class:`Problem` — collects variables (with bounds and integrality) and
  constraints and lowers everything to a :class:`LinearProgram`.
* :func:`eliminate_pinned` — the one-pass elimination of continuous columns
  pinned by equalities, shared by :meth:`Problem.presolved` and the Farkas
  block templates of :mod:`repro.schedule.farkas`.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from repro.linalg.rational import frac
from repro.obs.runtime import get_obs
from repro.solver.budget import get_budget
from repro.solver.dedup import get_solve_cache, is_miss
from repro.solver.ilp import solve_ilp
from repro.solver.lexmin import lexicographic_minimize
from repro.solver.lp import LinearProgram, LPStatus, integer_row
from repro.solver.warmstart import WarmStartHandle, incumbent_bound

Scalar = Union[int, Fraction, str]


class LinExpr:
    """An affine expression over named variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict[str, Fraction]] = None, const=0):
        self.coeffs: dict[str, Fraction] = {}
        if coeffs:
            for name, c in coeffs.items():
                c = frac(c)
                if c != 0:
                    self.coeffs[name] = c
        self.const = frac(const)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def of(cls, value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        return cls(const=frac(value))

    @classmethod
    def _raw(cls, coeffs: dict, const: Fraction) -> "LinExpr":
        """Constructor for callers that guarantee the invariants.

        ``coeffs`` must be a fresh dict of zero-free exact Fractions and
        ``const`` an exact Fraction; the normalizing loop of ``__init__``
        is skipped.  Hot paths (presolve substitution, Farkas matching)
        build their dicts directly and hand them off through this.
        """
        expr = object.__new__(cls)
        expr.coeffs = coeffs
        expr.const = const
        return expr

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.const)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "LinExpr":
        other = LinExpr.of(other)
        coeffs = dict(self.coeffs)
        for name, c in other.coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({n: -c for n, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other) -> "LinExpr":
        return self + (-LinExpr.of(other))

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.of(other) + (-self)

    def __mul__(self, k) -> "LinExpr":
        k = frac(k)
        return LinExpr({n: k * c for n, c in self.coeffs.items()}, k * self.const)

    __rmul__ = __mul__

    # -- comparisons produce constraints -------------------------------------

    def __le__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.of(other), "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.of(other), ">=")

    def eq(self, other) -> "Constraint":
        """Equality constraint (``==`` is kept as identity comparison)."""
        return Constraint(self - LinExpr.of(other), "==")

    # -- equality (structural; ``.eq()`` builds constraints instead) ----------

    def signature(self) -> tuple:
        """Canonical content: sorted coefficient items plus the constant.

        The constructor already normalizes (zero coefficients dropped, all
        values :class:`Fraction`), so two expressions are ``==`` iff their
        signatures are equal — ``__eq__``/``__hash__`` both defer to it,
        keeping the pair consistent under coefficient normalization.
        """
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other):
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash(self.signature())

    # -- inspection ------------------------------------------------------------

    def evaluate(self, assignment: dict[str, Fraction]) -> Fraction:
        """Value of the expression under a full variable assignment."""
        total = self.const
        for name, c in self.coeffs.items():
            total += c * frac(assignment[name])
        return total

    def variables(self) -> set[str]:
        return set(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        parts = [f"{c}*{n}" for n, c in sorted(self.coeffs.items())]
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def var(name: str) -> LinExpr:
    """A :class:`LinExpr` consisting of the single variable ``name``."""
    return LinExpr({name: Fraction(1)})


class Constraint:
    """``expr (<=|>=|==) 0`` — the rhs is folded into the expression.

    Immutable by convention (a plain ``__slots__`` class rather than a
    frozen dataclass: constraints are built in bulk on the hot path, and
    ``object.__setattr__``-mediated init is measurably slower).
    """

    __slots__ = ("expr", "sense")

    def __init__(self, expr: LinExpr, sense: str):
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        self.expr = expr
        self.sense = sense  # "<=", ">=", "=="

    def __eq__(self, other):
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.sense == other.sense and self.expr == other.expr

    def __hash__(self):
        return hash((self.expr, self.sense))

    def satisfied_by(self, assignment: dict[str, Fraction]) -> bool:
        value = self.expr.evaluate(assignment)
        if self.sense == "<=":
            return value <= 0
        if self.sense == ">=":
            return value >= 0
        return value == 0

    def __repr__(self):
        return f"{self.expr!r} {self.sense} 0"


def lower_constraints(constraints: Iterable[Constraint],
                      index: dict[str, int], width: int) -> tuple:
    """``(a_ub, b_ub, a_eq, b_eq, int_rows)`` of ``constraints`` over the
    columns ``index``: dense rows with ``a_ub x <= b_ub`` and ``a_eq x ==
    b_eq``, plus the simplex's sparse integer rows (every ``a_ub`` row, then
    every ``a_eq`` row; see :meth:`LinearProgram._trusted`), built from the
    same coefficients so the simplex never scans dense rows for nonzeros."""
    zero = Fraction(0)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    ub_rows, eq_rows = [], []
    for c in constraints:
        if c.sense == ">=":
            # Negate the coefficients, not a dense row element by element
            # (that negates every zero too).
            terms = [(index[name], -v) for name, v in c.expr.coeffs.items()]
        else:
            terms = [(index[name], v) for name, v in c.expr.coeffs.items()]
        row = [zero] * width
        for j, v in terms:
            row[j] = v
        if c.sense == "==":
            a_eq.append(row)
            b_eq.append(-c.expr.const)
            eq_rows.append(integer_row(terms))
        else:
            a_ub.append(row)
            b_ub.append(c.expr.const if c.sense == ">=" else -c.expr.const)
            ub_rows.append(integer_row(terms))
    return a_ub, b_ub, a_eq, b_eq, ub_rows + eq_rows


def eliminate_pinned(constraints: Sequence[Constraint], eligible: set[str],
                     lower: dict, upper: dict
                     ) -> tuple[list[Constraint], list[Constraint],
                                list[tuple[str, LinExpr]]]:
    """Substitute away ``eligible`` columns pinned by equality constraints.

    Farkas linearization ties many continuous multipliers to the integer
    unknowns through equalities; substituting them away shrinks the simplex
    tableau (a multiplier reappears only as rows for its finite bounds).

    One forward pass over the equalities in order.  An equality's victim is
    its first eligible column in coefficient-insertion order: the equality
    is dropped, the victim's solution ``expr`` is substituted into every
    other row that holds the victim (found through a column -> rows
    occurrence index), and the victim's finite bounds become rows over
    ``expr``.  An equality the pass skips holds no eligible column, so no
    later substitution can touch it: one pass reaches the fixed point a
    scan restarted after every elimination would.

    Returns ``(kept, bounds, trail)``: the surviving rows in their original
    order, the victims' bound rows in elimination order (later
    substitutions applied), and the trail ``[(victim, expr), ...]``.  The
    bounds dicts are read for victims only.
    """
    rows: list[Optional[Constraint]] = list(constraints)
    n_original = len(rows)
    trail: list[tuple[str, LinExpr]] = []
    # Built at the first victim: most problems have nothing to eliminate,
    # and then a scan of the equalities is all the pass costs.
    occurs: Optional[dict[str, set[int]]] = None
    zero = Fraction(0)
    for idx in range(n_original):
        c = rows[idx]
        if c.sense != "==":
            continue
        coeffs = c.expr.coeffs
        victim = next((n for n in coeffs if n in eligible), None)
        if victim is None:
            continue
        if occurs is None:
            occurs = {}
            for j, row in enumerate(rows):
                for n in row.expr.coeffs:
                    if n in eligible:
                        occurs.setdefault(n, set()).add(j)
        rows[idx] = None
        for n in coeffs:
            if n in eligible:
                occurs[n].discard(idx)
        scale = -1 / coeffs[victim]
        expr = LinExpr._raw({n: scale * v for n, v in coeffs.items()
                             if n != victim}, scale * c.expr.const)
        trail.append((victim, expr))
        fresh = [n for n in expr.coeffs if n in eligible]
        for j in occurs.pop(victim):
            other = rows[j]
            coeff = other.expr.coeffs[victim]
            # ``without + coeff * expr`` without the two intermediate
            # LinExpr copies.
            merged = {n: v for n, v in other.expr.coeffs.items()
                      if n != victim}
            for n, v in expr.coeffs.items():
                value = merged.get(n, zero) + coeff * v
                if value:
                    merged[n] = value
                else:
                    merged.pop(n, None)
            rows[j] = Constraint(
                LinExpr._raw(merged, other.expr.const + coeff * expr.const),
                other.sense)
            for n in fresh:
                if n in merged:
                    occurs.setdefault(n, set()).add(j)
                else:
                    occurs[n].discard(j)
        # The victim's bounds survive as inequalities on `expr`.
        bound_rows = []
        if lower[victim] is not None:
            bound_rows.append(expr >= lower[victim])
        if upper[victim] is not None:
            bound_rows.append(expr <= upper[victim])
        for row in bound_rows:
            for n in fresh:
                occurs.setdefault(n, set()).add(len(rows))
            rows.append(row)
    kept = [c for c in rows[:n_original] if c is not None]
    return kept, rows[n_original:], trail


# Memo for :meth:`Problem.fold_objectives`: the fold is pure content →
# content (level signatures + the mentioned variables' bounds) and every
# scheduling dimension of a kernel folds the same objective, so results are
# shared process-wide.  Entries (None included — the unbounded case) are
# immutable by contract.
_FOLD_CACHE: dict = {}
_FOLD_CACHE_MAX = 4096
_FOLD_MISS = object()


class Problem:
    """Collects named variables and constraints; lowers to LinearProgram."""

    def __init__(self):
        self._order: list[str] = []
        # Column index per name, maintained incrementally so lowering does
        # not rebuild the mapping on every call.
        self._index: dict[str, int] = {}
        self._lower: dict[str, Optional[Fraction]] = {}
        self._upper: dict[str, Optional[Fraction]] = {}
        self._integer: dict[str, bool] = {}
        self._constraints: list[Constraint] = []
        # Cached objective-independent part of ``lower_to_lp`` (constraint
        # matrix and bounds columns); invalidated by ``add_variable`` /
        # ``add_constraint``.  Solving the same problem under several
        # objectives (lexmin levels, warm/cold comparisons) re-lowers for
        # free.
        self._lowered: Optional[tuple] = None

    # -- declaration -----------------------------------------------------------

    def add_variable(self, name: str, lower=None, upper=None,
                     integer: bool = True) -> LinExpr:
        """Declare a variable; returns its expression.  Idempotent bounds
        updates tighten (never loosen) existing declarations."""
        self._lowered = None
        if name not in self._integer:
            self._index[name] = len(self._order)
            self._order.append(name)
            self._lower[name] = None if lower is None else frac(lower)
            self._upper[name] = None if upper is None else frac(upper)
            self._integer[name] = integer
        else:
            if lower is not None:
                old = self._lower[name]
                self._lower[name] = frac(lower) if old is None else max(old, frac(lower))
            if upper is not None:
                old = self._upper[name]
                self._upper[name] = frac(upper) if old is None else min(old, frac(upper))
            self._integer[name] = self._integer[name] or integer
        return var(name)

    def add_constraint(self, constraint: Constraint) -> None:
        """Add one constraint; its variables must be declared."""
        declared = self._integer
        for name in constraint.expr.coeffs:
            if name not in declared:
                missing = sorted(n for n in constraint.expr.coeffs
                                 if n not in declared)
                raise KeyError(f"undeclared variables in constraint: {missing}")
        self._lowered = None
        self._constraints.append(constraint)

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        for c in constraints:
            self.add_constraint(c)

    @property
    def variables(self) -> list[str]:
        return list(self._order)

    @property
    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    def clone(self) -> "Problem":
        """Independent copy (shares immutable constraints)."""
        clone = Problem()
        clone._order = list(self._order)
        clone._index = dict(self._index)
        clone._lower = dict(self._lower)
        clone._upper = dict(self._upper)
        clone._integer = dict(self._integer)
        clone._constraints = list(self._constraints)
        return clone

    # -- lowering ---------------------------------------------------------------

    def _row(self, expr: LinExpr) -> list[Fraction]:
        index = self._index
        row = [Fraction(0)] * len(self._order)
        for name, c in expr.coeffs.items():
            row[index[name]] = c
        return row

    def lower_to_lp(self, objective: Optional[LinExpr] = None) -> LinearProgram:
        """Produce the equivalent :class:`LinearProgram`.

        The constraint matrix and bounds columns depend only on the declared
        variables and constraints, so they are lowered once and cached until
        the next mutation; only the objective row is built per call.  The
        cached lists are shared between the returned programs — downstream
        consumers (simplex, branch and bound) treat them as read-only and
        copy before modifying bounds.
        """
        width = len(self._order)
        if self._lowered is None:
            self._lowered = (lower_constraints(self._constraints, self._index,
                                               width),
                             [self._lower[n] for n in self._order],
                             [self._upper[n] for n in self._order])
        (a_ub, b_ub, a_eq, b_eq, int_rows), lower, upper = self._lowered
        obj_row = self._row(objective) if objective is not None \
            else [Fraction(0)] * width
        # All entries are exact Fractions by construction (``add_variable``
        # and the LinExpr constructor coerce on entry), so the re-validating
        # public constructor is skipped.
        return LinearProgram._trusted(
            obj_row, a_ub, b_ub, a_eq, b_eq, lower, upper, int_rows)

    def integer_mask(self) -> list[bool]:
        return [self._integer[n] for n in self._order]

    # -- presolve -----------------------------------------------------------------

    def presolved(self, protect: Optional[set[str]] = None
                  ) -> tuple["Problem", list[tuple[str, LinExpr]]]:
        """Eliminate continuous variables pinned by equality constraints.

        Returns the reduced problem and the elimination trail
        ``[(name, expr), ...]`` (evaluate in reverse order to recover the
        eliminated values).  ``protect`` names variables that must survive.
        The reduced problem keeps the surviving rows in place, then the
        victims' bound rows in elimination order (see
        :func:`eliminate_pinned`).
        """
        protect = protect or set()
        integer = self._integer
        eligible = {n for n in self._order
                    if not integer[n] and n not in protect}
        kept, bounds, eliminated = eliminate_pinned(
            self._constraints, eligible, self._lower, self._upper)
        constraints = kept + bounds

        if not eliminated and all(c.expr.coeffs for c in constraints):
            # Nothing eliminated and no constant constraints to audit: the
            # reduced problem would be an exact copy, so skip the rebuild.
            # Callers only solve the result, never mutate it.
            return self, eliminated

        removed = {name for name, _ in eliminated}
        reduced = Problem()
        for name in self._order:
            if name not in removed:
                reduced.add_variable(name, self._lower[name],
                                     self._upper[name], self._integer[name])
        for c in constraints:
            # Constant constraints may remain; keep only the violated check.
            if not c.expr.coeffs:
                if not c.satisfied_by({}):
                    # Encode infeasibility explicitly.
                    flag = reduced.add_variable("__infeasible__", lower=0, upper=0)
                    reduced.add_constraint(flag >= 1)
                continue
            reduced.add_constraint(c)
        return reduced, eliminated

    @staticmethod
    def _recover(assignment: dict[str, Fraction],
                 eliminated: list[tuple[str, LinExpr]]) -> dict[str, Fraction]:
        for name, expr in reversed(eliminated):
            assignment[name] = expr.evaluate(assignment)
        return assignment

    # -- content keys (for the ambient solve cache) ------------------------------

    def _expr_key(self, expr: Optional[LinExpr]) -> Optional[tuple]:
        """Positional signature of an objective expression.

        Fractions are flattened to ``(numerator, denominator)`` int pairs
        throughout the key machinery: the representation is unique, and
        hashing ints is far cheaper than ``Fraction.__hash__`` (which
        computes a modular inverse per value).
        """
        if expr is None:
            return None
        index = self._index
        return (tuple(sorted((index[n], c.numerator, c.denominator)
                             for n, c in expr.coeffs.items())),
                expr.const.numerator, expr.const.denominator)

    def _content_key(self, kind: str, objective_key,
                     max_nodes: int) -> tuple:
        """Name-erased content of the whole problem.

        Variables appear only as column positions, so two problems that
        differ in nothing but variable names (e.g. per-statement sub-kernels
        of the ``tvm`` variant) share a key.  Constraint order and each
        constraint's coefficient *insertion* order are preserved — presolve's
        victim selection walks them in order, so order is part of the
        content that determines the exact result.
        """
        index = self._index
        constraints = tuple(
            (c.sense,
             tuple((index[n], v.numerator, v.denominator)
                   for n, v in c.expr.coeffs.items()),
             c.expr.const.numerator, c.expr.const.denominator)
            for c in self._constraints)
        lower, upper = self._lower, self._upper
        declarations = tuple(
            (None if lower[n] is None
             else (lower[n].numerator, lower[n].denominator),
             None if upper[n] is None
             else (upper[n].numerator, upper[n].denominator),
             self._integer[n])
            for n in self._order)
        return (kind, max_nodes, declarations, constraints, objective_key)

    # -- solving ----------------------------------------------------------------

    def solve(self, objective: Optional[LinExpr] = None,
              max_nodes: int = 100_000,
              presolve: bool = True,
              warm: Optional[WarmStartHandle] = None,
              _incumbent_bound: Optional[Fraction] = None,
              ) -> Optional[dict[str, Fraction]]:
        """Minimize ``objective`` (feasibility check if None).

        Returns the assignment dict, or None if infeasible/unbounded.
        ``warm`` offers prior solutions as incumbent bounds; the result is
        bitwise-identical to a cold solve (see :mod:`repro.solver.warmstart`).
        """
        if presolve:
            # Public entry: the recursive presolve=False call below is part
            # of the same solve, so only this level feeds the histogram.
            started = time.perf_counter()
            warm_hit = False
            try:
                metrics = get_obs().metrics
                cache = get_solve_cache()
                if cache is not None:
                    key = self._content_key("solve", self._expr_key(objective),
                                            max_nodes)
                    value = cache.lookup(key)
                    if not is_miss(value):
                        if metrics.enabled:
                            metrics.count("solver.dedup.hits")
                        budget = get_budget()
                        if budget is not None:
                            budget.check_deadline()
                        if value is None:
                            return None
                        return dict(zip(self._order, value))
                    if metrics.enabled:
                        metrics.count("solver.dedup.misses")
                protect = objective.variables() if objective is not None else set()
                reduced, eliminated = self.presolved(protect=protect)
                bound = None
                if warm is not None and warm:
                    bound = incumbent_bound(reduced, objective, warm)
                    warm_hit = bound is not None
                    if metrics.enabled:
                        metrics.count("solver.warmstart.hits" if warm_hit
                                      else "solver.warmstart.misses")
                sub = reduced.solve(objective, max_nodes=max_nodes,
                                    presolve=False, _incumbent_bound=bound)
                result = None if sub is None else self._recover(sub, eliminated)
                if cache is not None:
                    cache.store(key, None if result is None
                                else [result[n] for n in self._order])
                return result
            finally:
                metrics = get_obs().metrics
                if metrics.enabled:
                    elapsed = time.perf_counter() - started
                    metrics.observe("solver.solve_seconds", elapsed)
                    if warm_hit:
                        metrics.observe("solver.warmstart.reuse_seconds",
                                        elapsed)
        lp = self.lower_to_lp(objective)
        result = solve_ilp(lp, integer_mask=self.integer_mask(),
                           max_nodes=max_nodes,
                           incumbent_bound=_incumbent_bound)
        if result.status is not LPStatus.OPTIMAL:
            return None
        return dict(zip(self._order, result.x))

    def lexmin(self, objectives: Sequence[LinExpr],
               max_nodes: int = 100_000,
               presolve: bool = True,
               warm: Optional[WarmStartHandle] = None,
               _incumbent_bound: Optional[Fraction] = None,
               ) -> Optional[dict[str, Fraction]]:
        """Lexicographically minimize the given objective expressions.

        ``warm`` candidates seed the first level's incumbent bound; later
        levels chain their own incumbents (see
        :func:`repro.solver.lexmin.lexicographic_minimize`).
        """
        if presolve:
            started = time.perf_counter()
            warm_hit = False
            try:
                metrics = get_obs().metrics
                cache = get_solve_cache()
                if cache is not None:
                    key = self._content_key(
                        "lexmin",
                        tuple(self._expr_key(obj) for obj in objectives),
                        max_nodes)
                    value = cache.lookup(key)
                    if not is_miss(value):
                        if metrics.enabled:
                            metrics.count("solver.dedup.hits")
                        budget = get_budget()
                        if budget is not None:
                            budget.check_deadline()
                        if value is None:
                            return None
                        return dict(zip(self._order, value))
                    if metrics.enabled:
                        metrics.count("solver.dedup.misses")
                protect = set()
                for obj in objectives:
                    protect |= obj.variables()
                reduced, eliminated = self.presolved(protect=protect)
                bound = None
                if warm is not None and warm and objectives:
                    bound = incumbent_bound(reduced, objectives[0], warm)
                    warm_hit = bound is not None
                    if metrics.enabled:
                        metrics.count("solver.warmstart.hits" if warm_hit
                                      else "solver.warmstart.misses")
                sub = reduced.lexmin(objectives, max_nodes=max_nodes,
                                     presolve=False, _incumbent_bound=bound)
                result = None if sub is None else self._recover(sub, eliminated)
                if cache is not None:
                    cache.store(key, None if result is None
                                else [result[n] for n in self._order])
                return result
            finally:
                metrics = get_obs().metrics
                if metrics.enabled:
                    elapsed = time.perf_counter() - started
                    metrics.observe("solver.solve_seconds", elapsed)
                    if warm_hit:
                        metrics.observe("solver.warmstart.reuse_seconds",
                                        elapsed)
        lp = self.lower_to_lp()
        rows = [self._row(obj) for obj in objectives]
        result = lexicographic_minimize(lp, rows,
                                        integer_mask=self.integer_mask(),
                                        max_nodes=max_nodes,
                                        incumbent_bound=_incumbent_bound)
        if result.status is not LPStatus.OPTIMAL:
            return None
        return dict(zip(self._order, result.x))

    def fold_objectives(self, objectives: Sequence[LinExpr]) -> Optional[LinExpr]:
        """Collapse a lexicographic objective list into one weighted
        expression, exact when every level's variables are bounded.

        Returns None when some level has an unbounded range (callers should
        fall back to true lexicographic solving).

        The result depends only on the levels' content and the bounds of the
        variables they mention — identical for every scheduling dimension of
        a kernel — so it is memoized process-wide.  Returned expressions are
        shared and must not be mutated.
        """
        names: list[str] = []
        seen: set[str] = set()
        for obj in objectives:
            for name in obj.coeffs:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        lower, upper = self._lower, self._upper
        key = (tuple(
                   (tuple(sorted((n, c.numerator, c.denominator)
                                 for n, c in obj.coeffs.items())),
                    obj.const.numerator, obj.const.denominator)
                   for obj in objectives),
               tuple((n,
                      None if lower[n] is None
                      else (lower[n].numerator, lower[n].denominator),
                      None if upper[n] is None
                      else (upper[n].numerator, upper[n].denominator))
                     for n in names))
        cached = _FOLD_CACHE.get(key, _FOLD_MISS)
        if cached is not _FOLD_MISS:
            return cached
        folded = self._fold_objectives(objectives)
        if len(_FOLD_CACHE) >= _FOLD_CACHE_MAX:
            _FOLD_CACHE.clear()
        _FOLD_CACHE[key] = folded
        return folded

    def _fold_objectives(self, objectives: Sequence[LinExpr]) -> Optional[LinExpr]:
        spans: list[Fraction] = []
        for obj in objectives:
            span = Fraction(0)
            for name, coeff in obj.coeffs.items():
                lo, hi = self._lower[name], self._upper[name]
                if lo is None or hi is None:
                    return None
                span += abs(coeff) * (hi - lo)
            spans.append(span)
        coeffs: dict[str, Fraction] = {}
        const = Fraction(0)
        zero = Fraction(0)
        weight = Fraction(1)
        for obj, span in zip(reversed(objectives), reversed(spans)):
            for name, coeff in obj.coeffs.items():
                value = coeffs.get(name, zero) + weight * coeff
                if value:
                    coeffs[name] = value
                else:
                    coeffs.pop(name, None)
            const += weight * obj.const
            weight *= span + 1
        return LinExpr(coeffs, const)
