"""Schedule rows and multidimensional schedules.

A :class:`ScheduleRow` is one dimension of a statement's affine scheduling
function: integer coefficients for the statement's iterators and the kernel
parameters, plus a constant (Section III-B).  A :class:`Schedule` maps every
statement to its list of rows, all rows mapping into one common time space,
and carries per-dimension metadata (parallel / coincident flags, band
structure, vector-dimension marking) produced by the scheduler and consumed
by the mapping/codegen passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.ir.statement import Statement
from repro.linalg.rational import Rat
from repro.solver.problem import LinExpr


@dataclass(frozen=True)
class ScheduleRow:
    """One schedule dimension for one statement."""

    iterators: tuple[str, ...]
    iter_coeffs: tuple[int, ...]
    param_names: tuple[str, ...]
    param_coeffs: tuple[int, ...]
    const: int

    def __post_init__(self):
        if len(self.iter_coeffs) != len(self.iterators):
            raise ValueError("iterator coefficient arity mismatch")
        if len(self.param_coeffs) != len(self.param_names):
            raise ValueError("parameter coefficient arity mismatch")

    @classmethod
    def from_coeffs(cls, statement: Statement, params: Sequence[str],
                    iter_coeffs: Sequence[int], param_coeffs: Sequence[int],
                    const: int) -> "ScheduleRow":
        return cls(tuple(statement.iterators), tuple(int(c) for c in iter_coeffs),
                   tuple(params), tuple(int(c) for c in param_coeffs), int(const))

    @classmethod
    def scalar(cls, statement: Statement, params: Sequence[str],
               const: int) -> "ScheduleRow":
        """A constant row (a 'scalar dimension' separating statements)."""
        return cls(tuple(statement.iterators),
                   (0,) * len(statement.iterators),
                   tuple(params), (0,) * len(params), int(const))

    def as_expr(self) -> LinExpr:
        """The row as a LinExpr over iterator and parameter names."""
        coeffs: dict[str, int] = {}
        for name, c in zip(self.iterators, self.iter_coeffs):
            if c:
                coeffs[name] = c
        for name, c in zip(self.param_names, self.param_coeffs):
            if c:
                coeffs[name] = coeffs.get(name, 0) + c
        return LinExpr(coeffs, self.const)

    def evaluate(self, point: dict[str, Rat],
                 params: dict[str, int]) -> Rat:
        env = dict(params)
        env.update(point)
        return self.as_expr().evaluate(env)

    @property
    def is_scalar(self) -> bool:
        """True iff the row ignores the iteration vector."""
        return all(c == 0 for c in self.iter_coeffs)

    def coefficient_of(self, iterator: str) -> int:
        try:
            return self.iter_coeffs[self.iterators.index(iterator)]
        except ValueError:
            return 0

    def __str__(self):
        return str(self.as_expr())


@dataclass
class DimensionInfo:
    """Scheduler metadata for one schedule dimension."""

    coincident: bool = False     # zero reuse distance on all active deps
    parallel: bool = False       # carries no dependence at all
    band: int = 0                # permutable-band id the dimension belongs to
    vector: bool = False         # marked for load/store vectorization
    vector_width: int = 0        # lanes for the vector rewrite (2 or 4)
    from_influence: bool = False  # an influence-tree constraint shaped it


class Schedule:
    """A complete multidimensional schedule for a kernel."""

    def __init__(self, statements: Sequence[Statement], params: Sequence[str]):
        self.statements = list(statements)
        self.params = list(params)
        self.rows: dict[str, list[ScheduleRow]] = {s.name: [] for s in self.statements}
        self.dims: list[DimensionInfo] = []

    # -- construction (used by the scheduler) --------------------------------

    def append_dimension(self, rows: dict[str, ScheduleRow],
                         info: Optional[DimensionInfo] = None) -> None:
        missing = {s.name for s in self.statements} - set(rows)
        if missing:
            raise ValueError(f"missing rows for statements {sorted(missing)}")
        for s in self.statements:
            self.rows[s.name].append(rows[s.name])
        self.dims.append(info or DimensionInfo())

    def drop_dimensions_from(self, depth: int) -> None:
        """Withdraw dimensions ``>= depth`` (Algorithm 1 backtracking)."""
        for name in self.rows:
            self.rows[name] = self.rows[name][:depth]
        self.dims = self.dims[:depth]

    # -- queries -----------------------------------------------------------------

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def statement(self, name: str) -> Statement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(name)

    def rows_of(self, name: str) -> list[ScheduleRow]:
        return list(self.rows[name])

    def iterator_matrix(self, name: str) -> list[list[int]]:
        """The H_S part (iterator coefficients only), one row per dim."""
        return [list(r.iter_coeffs) for r in self.rows[name]]

    def rank_of(self, name: str) -> int:
        """Rank of the iterator part of this statement's schedule."""
        from repro.linalg.hermite import rank
        return rank(self.iterator_matrix(name))

    def is_complete(self) -> bool:
        """Full iterator rank for every statement (enough dims for codegen)."""
        return all(self.rank_of(s.name) == s.depth for s in self.statements)

    def date_of(self, name: str, point: dict[str, Rat],
                params: dict[str, int]) -> tuple:
        """The logical date of one statement execution."""
        return tuple(r.evaluate(point, params) for r in self.rows[name])

    def vector_dim(self) -> Optional[int]:
        for d, info in enumerate(self.dims):
            if info.vector:
                return d
        return None

    def mark_vector(self, dim: int) -> None:
        self.dims[dim].vector = True

    def bands(self) -> list[list[int]]:
        """Schedule dimensions grouped into permutable bands."""
        groups: dict[int, list[int]] = {}
        for d, info in enumerate(self.dims):
            groups.setdefault(info.band, []).append(d)
        return [groups[b] for b in sorted(groups)]

    def pretty(self) -> str:
        lines = []
        for s in self.statements:
            exprs = ", ".join(str(r) for r in self.rows[s.name])
            lines.append(f"theta_{s.name}({', '.join(s.iterators)}) = ({exprs})")
        flags = []
        for d, info in enumerate(self.dims):
            tags = []
            if info.coincident:
                tags.append("coincident")
            if info.parallel:
                tags.append("parallel")
            if info.vector:
                tags.append("vector")
            tags.append(f"band{info.band}")
            flags.append(f"  dim {d}: {', '.join(tags)}")
        return "\n".join(lines + flags)

    def __str__(self):
        return self.pretty()
