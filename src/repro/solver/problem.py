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
  blocks of :mod:`repro.schedule.farkas`.
* :data:`ILP_MEMO` — the process-wide memo of solved lowered programs
  (``cache.ilp``) that :meth:`Problem.solve` and :meth:`Problem.lexmin`
  consult.
"""

from __future__ import annotations

import marshal
import time
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.linalg.rational import Rat, div, frac
from repro.memo import Memo
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Obs, get_obs, use_obs
from repro.solver.budget import get_budget, use_budget
from repro.solver.ilp import solve_ilp
from repro.solver.lexmin import lexicographic_minimize
from repro.solver.lp import LinearProgram, LPResult, LPStatus, integer_row

Scalar = Union[Rat, str]


class LinExpr:
    """An affine expression over named variables.

    Coefficients and the constant are canonical exact scalars (see
    :mod:`repro.linalg.rational`): ``int`` when whole, ``Fraction``
    otherwise.  Zero coefficients are never stored.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict[str, Rat]] = None, const=0):
        self.coeffs: dict[str, Rat] = {}
        if coeffs:
            for name, c in coeffs.items():
                c = frac(c)
                if c:
                    self.coeffs[name] = c
        self.const = frac(const)

    # -- construction helpers ---------------------------------------------

    @classmethod
    def of(cls, value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        return cls._raw({}, frac(value))

    @classmethod
    def _raw(cls, coeffs: dict, const: Rat) -> "LinExpr":
        """Constructor for callers that guarantee the invariants.

        ``coeffs`` must be a fresh dict of nonzero canonical scalars and
        ``const`` a canonical scalar: ``int`` when whole, ``Fraction`` only
        with a denominator greater than 1 (:func:`frac` makes one).  The
        normalizing loop of ``__init__`` is skipped.  Hot paths (presolve
        substitution, Farkas matching, Fourier–Motzkin) build their dicts
        directly and hand them off through this.
        """
        expr = object.__new__(cls)
        expr.coeffs = coeffs
        expr.const = const
        return expr

    def copy(self) -> "LinExpr":
        return LinExpr._raw(dict(self.coeffs), self.const)

    # -- arithmetic ----------------------------------------------------------

    def _combined(self, k: Rat, other: "LinExpr") -> "LinExpr":
        """``self + k * other`` for a nonzero canonical ``k``; the result's
        coefficients keep ``self``'s order, then ``other``'s new names."""
        return LinExpr._raw(add_scaled(dict(self.coeffs), k, other.coeffs),
                            frac(self.const + k * other.const))

    def __add__(self, other) -> "LinExpr":
        return self._combined(1, LinExpr.of(other))

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._raw({n: -c for n, c in self.coeffs.items()},
                            -self.const)

    def __sub__(self, other) -> "LinExpr":
        return self._combined(-1, LinExpr.of(other))

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.of(other)._combined(-1, self)

    def __mul__(self, k) -> "LinExpr":
        k = frac(k)
        if not k:
            return LinExpr._raw({}, 0)
        return LinExpr._raw({n: frac(k * c) for n, c in self.coeffs.items()},
                            frac(k * self.const))

    __rmul__ = __mul__

    def substitute(self, name: str, expr: "LinExpr") -> "LinExpr":
        """This expression with variable ``name`` replaced by ``expr``.

        Equal to ``without + c * expr`` (``without`` drops ``name``, ``c`` is
        its coefficient), coefficient order included, without building the
        two intermediate expressions.  Returns ``self`` when ``name`` does
        not occur.
        """
        c = self.coeffs.get(name)
        if not c:
            return self
        coeffs = {n: v for n, v in self.coeffs.items() if n != name}
        return LinExpr._raw(add_scaled(coeffs, c, expr.coeffs),
                            frac(self.const + c * expr.const))

    def solved_for(self, name: str) -> "LinExpr":
        """``-rest / k`` where ``self = k*name + rest`` with ``k != 0``: the
        value of ``name`` where ``self == 0``.  Where ``self >= 0`` it is a
        lower bound on ``name`` when ``k > 0`` and an upper bound when
        ``k < 0``."""
        scale = div(-1, self.coeffs[name])
        return LinExpr._raw({n: frac(scale * v)
                             for n, v in self.coeffs.items() if n != name},
                            frac(scale * self.const))

    # -- comparisons produce constraints -------------------------------------

    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, ">=")

    def eq(self, other) -> "Constraint":
        """Equality constraint (``==`` is kept as identity comparison)."""
        return Constraint(self - other, "==")

    # -- equality (structural; ``.eq()`` builds constraints instead) ----------

    def signature(self) -> tuple:
        """Canonical content: sorted coefficient items plus the constant.

        Every value is a canonical scalar and zero coefficients are never
        stored, so two expressions are ``==`` iff their signatures are
        equal — ``__eq__``/``__hash__`` both defer to it, keeping the pair
        consistent.
        """
        return (tuple(sorted(self.coeffs.items())), self.const)

    def __eq__(self, other):
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash(self.signature())

    # -- inspection ------------------------------------------------------------

    def evaluate(self, assignment: dict[str, Rat]) -> Rat:
        """Value of the expression under a full variable assignment."""
        total = self.const
        for name, c in self.coeffs.items():
            total += c * frac(assignment[name])
        return frac(total)

    def variables(self) -> set[str]:
        return set(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        parts = [f"{c}*{n}" for n, c in sorted(self.coeffs.items())]
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def add_scaled(coeffs: dict, k: Rat, other: dict) -> dict:
    """``coeffs += k * other`` in place over canonical scalars, dropping
    zeros; names new to ``coeffs`` are appended in ``other``'s order.
    Returns ``coeffs``."""
    for n, v in other.items():
        value = frac(coeffs.get(n, 0) + k * v)
        if value:
            coeffs[n] = value
        else:
            coeffs.pop(n, None)
    return coeffs


def var(name: str) -> LinExpr:
    """A :class:`LinExpr` consisting of the single variable ``name``."""
    return LinExpr._raw({name: 1}, 0)


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

    def satisfied_by(self, assignment: dict[str, Rat]) -> bool:
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
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    ub_rows, eq_rows = [], []
    for c in constraints:
        if c.sense == ">=":
            # Negate the coefficients, not a dense row element by element
            # (that negates every zero too).
            terms = [(index[name], -v) for name, v in c.expr.coeffs.items()]
        else:
            terms = [(index[name], v) for name, v in c.expr.coeffs.items()]
        row = [0] * width
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
        expr = c.expr.solved_for(victim)
        trail.append((victim, expr))
        fresh = [n for n in expr.coeffs if n in eligible]
        for j in occurs.pop(victim):
            other = rows[j]
            substituted = other.expr.substitute(victim, expr)
            rows[j] = Constraint(substituted, other.sense)
            merged = substituted.coeffs
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


# -- the solve memo -----------------------------------------------------------

#: Entries kept (LRU).  A serial ``repro table2 --limit 0`` process solves
#: 846 dimension ILPs, 191 of them distinct; the bound only guards against
#: pathological workloads.
MAX_ILP_ENTRIES = 4096

#: ``(point or None, pivot runs, solver.* counters)`` by :func:`_program_key`.
#: Dimension ILPs recur exactly across operators that differ only in sizes
#: (the Farkas multipliers are projected out, so sizes rarely reach the
#: program).  A hit replays the work of the solve it skips (:func:`_replay`),
#: so work counters and budgets behave as if the program had been solved.
ILP_MEMO = Memo("cache.ilp", MAX_ILP_ENTRIES)


def _scalars(values: list) -> list:
    """``values`` (canonical scalars or ``None``) with every ``Fraction`` as
    a ``(numerator, denominator)`` pair, which :mod:`marshal` encodes."""
    if all(type(v) is int or v is None for v in values):
        return values
    return [v if type(v) is int or v is None
            else (v.numerator, v.denominator) for v in values]


def _program_key(lp: LinearProgram, objectives: Sequence[list],
                 integer_mask: list[bool], max_nodes: int) -> bytes:
    """Everything the simplex and branch and bound read of a lowered
    program, as compact bytes: the sparse integer rows (term order kept,
    the tableau follows it), right-hand sides, bounds, the objective
    level(s), the integrality mask and the node cap.  ``marshal`` version
    2 writes no back-references, so equal content gives equal bytes."""
    return marshal.dumps((lp.integer_rows(), _scalars(lp.b_ub),
                          _scalars(lp.b_eq), _scalars(lp.lower),
                          _scalars(lp.upper),
                          [_scalars(row) for row in objectives],
                          integer_mask, max_nodes), 2)


class _ChargeLog:
    """Stands in for the ambient budget during a memoized solve: records
    every charge, as runs of pivots between node charges, and forwards it
    to the real budget when there is one."""

    __slots__ = ("inner", "runs")

    def __init__(self, inner):
        self.inner = inner
        self.runs = [0]

    def charge_pivot(self) -> None:
        self.runs[-1] += 1
        if self.inner is not None:
            self.inner.charge_pivot()

    def charge_node(self) -> None:
        self.runs.append(0)
        if self.inner is not None:
            self.inner.charge_node()


def _count(counters: Iterable[tuple[str, float]]) -> None:
    metrics = get_obs().metrics
    if metrics.enabled:
        for name, amount in counters:
            metrics.count(name, amount)


def _replay(runs: tuple, counters: tuple) -> None:
    """Charge the ambient budget and count the ``solver.*`` work of a
    memoized solve, in the order the solve did.  A budget that runs out
    raises :class:`~repro.errors.SolverTimeout` where the solve would
    have (no work is counted then)."""
    budget = get_budget()
    if budget is not None:
        for index, pivots in enumerate(runs):
            if index:
                budget.charge_node()
            for _ in range(pivots):
                budget.charge_pivot()
    _count(counters)


def _memo_solve(lp: LinearProgram, objectives: Sequence[list],
                integer_mask: list[bool], max_nodes: int,
                solve: Callable[[], LPResult]) -> Optional[tuple]:
    """The optimal point of ``solve()`` (``None`` when the program has
    none), through :data:`ILP_MEMO`.  A failed solve
    (:class:`~repro.errors.BranchLimitExceeded`,
    :class:`~repro.errors.SolverTimeout`) is never stored."""
    key = _program_key(lp, objectives, integer_mask, max_nodes)
    entry = ILP_MEMO.get(key)
    if entry is not None:
        _replay(entry[1], entry[2])
        return entry[0]
    log = _ChargeLog(get_budget())
    registry = MetricsRegistry()
    try:
        with use_budget(log), use_obs(Obs(get_obs().tracer, registry)):
            result = solve()
    finally:
        _count(registry.counters.items())
    x = tuple(result.x) if result.status is LPStatus.OPTIMAL else None
    ILP_MEMO.put(key, (x, tuple(log.runs), tuple(registry.counters.items())))
    return x


class Problem:
    """Collects named variables and constraints; lowers to LinearProgram."""

    def __init__(self):
        self._order: list[str] = []
        # Column index per name, maintained incrementally so lowering does
        # not rebuild the mapping on every call.
        self._index: dict[str, int] = {}
        self._lower: dict[str, Optional[Rat]] = {}
        self._upper: dict[str, Optional[Rat]] = {}
        self._integer: dict[str, bool] = {}
        self._constraints: list[Constraint] = []
        # Cached objective-independent part of ``lower_to_lp`` (constraint
        # matrix and bounds columns); invalidated by ``add_variable`` /
        # ``add_constraint``.  Solving the same problem under several
        # objectives (lexmin levels) re-lowers for free.
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

    def _row(self, expr: LinExpr) -> list[Rat]:
        index = self._index
        row = [0] * len(self._order)
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
            else [0] * width
        # All entries are canonical scalars by construction
        # (``add_variable`` and the LinExpr constructor coerce on entry), so
        # the re-validating public constructor is skipped.
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
    def _recover(assignment: dict[str, Rat],
                 eliminated: list[tuple[str, LinExpr]]) -> dict[str, Rat]:
        for name, expr in reversed(eliminated):
            assignment[name] = expr.evaluate(assignment)
        return assignment

    def _solve_presolved(self, protect: set[str],
                         solve_reduced) -> Optional[dict[str, Rat]]:
        """Presolve (keeping ``protect``), hand the reduced problem to
        ``solve_reduced`` and recover the eliminated values.  Feeds the
        ``solver.solve_seconds`` histogram."""
        started = time.perf_counter()
        try:
            reduced, eliminated = self.presolved(protect=protect)
            sub = solve_reduced(reduced)
            return None if sub is None else self._recover(sub, eliminated)
        finally:
            metrics = get_obs().metrics
            if metrics.enabled:
                metrics.observe("solver.solve_seconds",
                                time.perf_counter() - started)

    # -- solving ----------------------------------------------------------------

    def solve(self, objective: Optional[LinExpr] = None,
              max_nodes: int = 100_000,
              presolve: bool = True) -> Optional[dict[str, Rat]]:
        """Minimize ``objective`` (feasibility check if None).

        Returns the assignment dict, or None if infeasible/unbounded.  The
        lowered program is solved through :data:`ILP_MEMO`.
        """
        if presolve:
            protect = objective.variables() if objective is not None else set()
            return self._solve_presolved(protect, lambda reduced: reduced.solve(
                objective, max_nodes=max_nodes, presolve=False))
        lp = self.lower_to_lp(objective)
        mask = self.integer_mask()
        x = _memo_solve(lp, [lp.objective], mask, max_nodes,
                        lambda: solve_ilp(lp, integer_mask=mask,
                                          max_nodes=max_nodes))
        return None if x is None else dict(zip(self._order, x))

    def lexmin(self, objectives: Sequence[LinExpr],
               max_nodes: int = 100_000,
               presolve: bool = True) -> Optional[dict[str, Rat]]:
        """Lexicographically minimize the given objective expressions (see
        :func:`repro.solver.lexmin.lexicographic_minimize`)."""
        if presolve:
            protect: set[str] = set()
            for obj in objectives:
                protect |= obj.variables()
            return self._solve_presolved(protect, lambda reduced: reduced.lexmin(
                objectives, max_nodes=max_nodes, presolve=False))
        lp = self.lower_to_lp()
        rows = [self._row(obj) for obj in objectives]
        mask = self.integer_mask()
        # The program's own (zero) objective is ignored, so it stays out
        # of the key: a single level solves exactly as Problem.solve does.
        x = _memo_solve(lp, rows, mask, max_nodes,
                        lambda: lexicographic_minimize(
                            lp, rows, integer_mask=mask, max_nodes=max_nodes))
        return None if x is None else dict(zip(self._order, x))

    def fold_objectives(self, objectives: Sequence[LinExpr]) -> Optional[LinExpr]:
        """Collapse a lexicographic objective list into one weighted
        expression, exact when every level's variables are bounded.

        Returns None when some level has an unbounded range (callers should
        fall back to true lexicographic solving).
        """
        spans: list[Rat] = []
        for obj in objectives:
            span = 0
            for name, coeff in obj.coeffs.items():
                lo, hi = self._lower[name], self._upper[name]
                if lo is None or hi is None:
                    return None
                span += abs(coeff) * (hi - lo)
            spans.append(frac(span))
        coeffs: dict[str, Rat] = {}
        const = 0
        weight = 1
        for obj, span in zip(reversed(objectives), reversed(spans)):
            add_scaled(coeffs, weight, obj.coeffs)
            const = frac(const + weight * obj.const)
            weight = frac(weight * (span + 1))
        return LinExpr._raw(coeffs, const)
