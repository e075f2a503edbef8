"""Constraint builders for the per-dimension scheduling ILP (Section IV-A).

Each scheduling dimension is found by solving one ILP whose unknowns are,
for every statement ``S``:

* ``c[S].i{k}`` — coefficient of the k-th iterator of ``S``,
* ``c[S].p[{p}]`` — coefficient of parameter ``p``,
* ``c[S].0`` — the constant,

plus the proximity bound unknowns ``u[{p}]`` and ``w``.  The Farkas
blocks' multipliers are projected out (:mod:`repro.schedule.farkas`), so
these are the only columns, unless a block is over the projection cap and
keeps its multipliers.  The builders below add:

* validity (Feautrier):          phi_T - phi_S >= 0 on every relation,
* proximity (Bondhugula/isl):    phi_T - phi_S <= u.p + w on every relation,
* coincidence (Lim & Lam):       phi_T - phi_S == 0 on every relation,
* progression (Pluto eq. 3/4):   nonzero, linearly independent rows.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.deps.relation import DependenceRelation, source_dim, target_dim
from repro.ir.statement import Statement
from repro.linalg.hermite import orthogonal_complement_or_identity
from repro.schedule.farkas import SymbolicAffineForm, add_farkas_nonneg
from repro.schedule.functions import ScheduleRow
from repro.solver.problem import (Constraint, LinExpr, Problem, add_scaled,
                                  var)


def iter_coeff_name(stmt: str, index: int) -> str:
    return f"c[{stmt}].i{index}"


def param_coeff_name(stmt: str, param: str) -> str:
    return f"c[{stmt}].p[{param}]"


def const_coeff_name(stmt: str) -> str:
    return f"c[{stmt}].0"


class DimensionProblem:
    """The ILP for one scheduling dimension."""

    def __init__(self, statements: Sequence[Statement], params: Sequence[str],
                 coeff_bound: int = 7, const_bound: int = 31,
                 forms: Optional[dict] = None):
        self.statements = list(statements)
        self.params = list(params)
        self.coeff_bound = coeff_bound
        self.const_bound = const_bound
        #: Symbolic forms per ``(kind, id(relation))`` as ``(relation,
        #: form)`` (holding the relation keeps its id unique), shared by
        #: forks.  A scheduler passes one dict to every dimension problem
        #: of a run, so each relation's forms are built once per run.
        #: Statements and parameters must be the same for every problem
        #: sharing it.
        self._forms = {} if forms is None else forms
        self.problem = Problem()
        self._farkas_counter = 0
        #: The multiplier-free Farkas rows in :attr:`problem`: a block row
        #: already there (the validity rows a coincidence block repeats,
        #: or the same projection of two relations) is not added again.
        self._farkas_rows: set[Constraint] = set()
        self._declare_schedule_variables()
        self._u_vars: Optional[dict[str, LinExpr]] = None
        self._w_var: Optional[LinExpr] = None

    def fork(self) -> "DimensionProblem":
        """Independent copy sharing the constraints built so far.

        The scheduler builds validity + proximity once per dimension and
        forks before layering coincidence or progression on top, instead of
        re-linearizing everything for each retry.  The fork continues the
        Farkas prefix counter, so constraint/variable naming matches what a
        from-scratch build would produce.
        """
        copy = DimensionProblem.__new__(DimensionProblem)
        copy.statements = self.statements
        copy.params = self.params
        copy.coeff_bound = self.coeff_bound
        copy.const_bound = self.const_bound
        copy._forms = self._forms
        copy.problem = self.problem.clone()
        copy._farkas_counter = self._farkas_counter
        copy._farkas_rows = set(self._farkas_rows)
        copy._u_vars = self._u_vars
        copy._w_var = self._w_var
        return copy

    # -- variables -----------------------------------------------------------

    def _declare_schedule_variables(self) -> None:
        for s in self.statements:
            for k in range(s.depth):
                self.problem.add_variable(iter_coeff_name(s.name, k),
                                          lower=0, upper=self.coeff_bound)
            for p in self.params:
                self.problem.add_variable(param_coeff_name(s.name, p),
                                          lower=0, upper=self.coeff_bound)
            self.problem.add_variable(const_coeff_name(s.name),
                                      lower=0, upper=self.const_bound)

    def _add_farkas(self, poly, form: SymbolicAffineForm) -> None:
        self._farkas_counter += 1
        add_farkas_nonneg(self.problem, f"f{self._farkas_counter}", poly,
                          form, self._farkas_rows)

    # -- symbolic schedule forms ------------------------------------------------

    def phi_form(self, statement: Statement, side: str) -> SymbolicAffineForm:
        """``phi_S`` as a symbolic form over a relation's renamed dims.

        ``side`` is "s" (source) or "t" (target); parameters keep their
        shared names.
        """
        renamer = source_dim if side == "s" else target_dim
        form = SymbolicAffineForm()
        for k, it in enumerate(statement.iterators):
            form.add_term(renamer(it), var(iter_coeff_name(statement.name, k)))
        for p in self.params:
            form.add_term(p, var(param_coeff_name(statement.name, p)))
        form.const = form.const + var(const_coeff_name(statement.name))
        return form

    def delta_form(self, rel: DependenceRelation) -> SymbolicAffineForm:
        """``phi_T(t) - phi_S(s)`` as a symbolic form over relation dims."""
        src = self.phi_form(rel.source, "s")
        tgt = self.phi_form(rel.target, "t")
        form = SymbolicAffineForm()
        for dim, coeff in tgt.coeffs.items():
            form.add_term(dim, coeff)
        for dim, coeff in src.coeffs.items():
            form.add_term(dim, -1 * coeff)
        form.const = tgt.const - src.const
        return form

    def _relation_form(self, kind: str,
                       rel: DependenceRelation) -> SymbolicAffineForm:
        """The form of ``rel`` that ``kind`` names, built once per shared
        form dict: "delta" (:meth:`delta_form`), "negated" (its negation)
        or "proximity" (``u.p + w - delta``; needs the u, w unknowns)."""
        key = (kind, id(rel))
        entry = self._forms.get(key)
        if entry is not None:
            return entry[1]
        if kind == "delta":
            form = self.delta_form(rel)
        elif kind == "negated":
            delta = self._relation_form("delta", rel)
            form = SymbolicAffineForm(
                {d: -c for d, c in delta.coeffs.items()}, -delta.const)
        else:
            delta = self._relation_form("delta", rel)
            form = SymbolicAffineForm()
            for p in self.params:
                form.add_term(p, self._u_vars[p])
            form.const = form.const + self._w_var
            for dim, coeff in delta.coeffs.items():
                form.add_term(dim, -1 * coeff)
            form.const = form.const - delta.const
        self._forms[key] = (rel, form)
        return form

    # -- builders ------------------------------------------------------------------

    def add_validity(self, relations: Iterable[DependenceRelation]) -> None:
        """phi_T - phi_S >= 0 on every relation (weak satisfaction)."""
        for rel in relations:
            self._add_farkas(rel.polyhedron, self._relation_form("delta", rel))

    def add_proximity(self, relations: Iterable[DependenceRelation]) -> None:
        """phi_T - phi_S <= u.p + w on every relation; declares u, w."""
        if self._u_vars is None:
            self._u_vars = {}
            for p in self.params:
                self._u_vars[p] = self.problem.add_variable(
                    f"u[{p}]", lower=0, upper=self.coeff_bound)
            self._w_var = self.problem.add_variable(
                "w", lower=0, upper=self.const_bound)
        for rel in relations:
            self._add_farkas(rel.polyhedron,
                             self._relation_form("proximity", rel))

    def add_coincidence(self, relations: Iterable[DependenceRelation]) -> None:
        """phi_T - phi_S == 0 on every relation (zero reuse distance)."""
        for rel in relations:
            self._add_farkas(rel.polyhedron, self._relation_form("delta", rel))
            self._add_farkas(rel.polyhedron,
                             self._relation_form("negated", rel))

    def add_progression(self, previous_rows: dict[str, list[ScheduleRow]],
                        skip: Optional[set] = None) -> None:
        """Pluto eq. (3) and (4): nonzero rows, linearly independent from
        the rows already computed.  Statements whose iterator space is
        already fully spanned are left unconstrained (they may receive a
        zero or dependent row, as in Pluto); statements in ``skip`` are
        exempted (influence-tree ``allow_zero`` meta)."""
        skip = skip or set()
        for s in self.statements:
            if s.name in skip:
                continue
            h_rows = [list(r.iter_coeffs) for r in previous_rows.get(s.name, [])]
            basis = orthogonal_complement_or_identity(h_rows, s.depth) \
                if s.depth else []
            if not basis:
                continue
            coeff_names = [iter_coeff_name(s.name, k) for k in range(s.depth)]
            # Eq. (3): sum of iterator coefficients >= 1.
            self.problem.add_constraint(Constraint(
                LinExpr._raw(dict.fromkeys(coeff_names, 1), -1), ">="))
            # Eq. (4): each complement component nonnegative, their sum >= 1.
            # The complement basis is integral (``primitive`` vectors).
            sums: dict[str, int] = {}
            for row in basis:
                component = {n: value
                             for value, n in zip(row, coeff_names) if value}
                self.problem.add_constraint(
                    Constraint(LinExpr._raw(component, 0), ">="))
                add_scaled(sums, 1, component)
            self.problem.add_constraint(
                Constraint(LinExpr._raw(sums, -1), ">="))

    def add_raw_constraints(self, constraints) -> None:
        """Inject externally built constraints (the influence mechanism).

        Any variable the constraints mention that is not yet declared is
        created as a bounded nonnegative integer (same bounds as schedule
        coefficients)."""
        for c in constraints:
            for name in c.expr.variables():
                self.problem.add_variable(name, lower=0, upper=self.coeff_bound)
            self.problem.add_constraint(c)

    # -- objective & solving ----------------------------------------------------------

    def objectives(self) -> list[LinExpr]:
        """The isl-style lexicographic objective (Section IV-A-2):
        ``(sum_i u_i, w, sum of iterator coeffs, sum of parameter coeffs,
        sum of constants)``."""
        levels: list[LinExpr] = []
        if self._u_vars is not None:
            u_total: dict[str, int] = {}
            for p in self.params:
                add_scaled(u_total, 1, self._u_vars[p].coeffs)
            levels.append(LinExpr._raw(u_total, 0))
            levels.append(self._w_var.copy())
        iter_total: dict[str, int] = {}
        param_total: dict[str, int] = {}
        const_total: dict[str, int] = {}
        for s in self.statements:
            for k in range(s.depth):
                iter_total[iter_coeff_name(s.name, k)] = 1
            for p in self.params:
                param_total[param_coeff_name(s.name, p)] = 1
            const_total[const_coeff_name(s.name)] = 1
        levels.extend([LinExpr._raw(iter_total, 0),
                       LinExpr._raw(param_total, 0),
                       LinExpr._raw(const_total, 0)])
        return levels

    def solve(self, extra_objectives: Sequence[LinExpr] = (),
              injected_objectives: Sequence[LinExpr] = (),
              max_nodes: int = 60_000) -> Optional[dict[str, list[int]]]:
        """Solve the dimension ILP; returns per-statement coefficient rows
        ``[iter_coeffs..., param_coeffs..., const]`` or None.

        ``injected_objectives`` (from influence-tree nodes) are inserted
        after the proximity levels and before the coefficient sums;
        ``extra_objectives`` (tie-breaks) come last.  The lexicographic
        objective is folded into a single weighted expression when all its
        variables are bounded (they are, by construction), so one
        branch-and-bound run decides the dimension.
        """
        levels = self.objectives()
        if injected_objectives:
            insert_at = 2 if self._u_vars is not None else 0
            levels[insert_at:insert_at] = list(injected_objectives)
        levels = levels + list(extra_objectives)
        folded = self.problem.fold_objectives(levels)
        if folded is not None:
            assignment = self.problem.solve(objective=folded,
                                            max_nodes=max_nodes)
        else:
            assignment = self.problem.lexmin(levels, max_nodes=max_nodes)
        if assignment is None:
            return None
        out: dict[str, list[int]] = {}
        for s in self.statements:
            row = [int(assignment[iter_coeff_name(s.name, k)])
                   for k in range(s.depth)]
            row += [int(assignment[param_coeff_name(s.name, p)])
                    for p in self.params]
            row.append(int(assignment[const_coeff_name(s.name)]))
            out[s.name] = row
        return out
