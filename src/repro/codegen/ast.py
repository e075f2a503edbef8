"""Loop AST produced by code generation.

Nodes:

* :class:`Loop` — an integer loop over a schedule-time variable, with affine
  lower/upper bound *lists* (max of lowers, min of uppers, inclusive) and
  scheduling metadata (parallel, vector, GPU mapping).
* :class:`Guard` — affine conditions protecting a sub-tree.
* :class:`StatementCall` — one statement instance; carries the expressions
  reconstructing the original iterators from schedule-time variables.
* :class:`Seq` — ordered composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.ir.statement import Statement
from repro.linalg.rational import Rat
from repro.solver.problem import Constraint, LinExpr

Node = Union["Loop", "Guard", "StatementCall", "Seq"]


def _expr_str(expr: LinExpr, names: Optional[dict] = None) -> str:
    """``expr`` as text, variables sorted by name; ``names`` renames
    variables (unlisted names stay) before sorting."""
    items = expr.coeffs.items() if names is None else \
        [(names.get(n, n), c) for n, c in expr.coeffs.items()]
    parts = []
    for name, coeff in sorted(items):
        if coeff == 1:
            parts.append(name)
        elif coeff == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{coeff}*{name}")
    if expr.const != 0 or not parts:
        parts.append(str(expr.const))
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def _bound_str(exprs: list[LinExpr], which: str,
               names: Optional[dict]) -> str:
    if len(exprs) == 1:
        return _expr_str(exprs[0], names)
    inner = ", ".join(_expr_str(e, names) for e in exprs)
    return f"{which}({inner})"


@dataclass
class Seq:
    """Ordered composition of AST nodes."""

    children: list[Node] = field(default_factory=list)

    def render(self, indent: int = 0,
               names: Optional[dict] = None) -> list[str]:
        """The subtree as text lines; ``names`` renames variables
        (loop variables included) in the whole subtree."""
        lines: list[str] = []
        for child in self.children:
            lines.extend(child.render(indent, names))
        return lines


@dataclass
class Loop:
    """``for (var = max(lowers); var <= min(uppers); var++)``.

    For *union* loops covering statements with different bounds the modes
    flip (``lower_is_min`` / ``upper_is_max``) and per-statement guards
    inside the body restore exactness.
    """

    var: str
    lowers: list[LinExpr]
    uppers: list[LinExpr]
    body: Seq
    schedule_dim: int = -1
    parallel: bool = False
    vector: bool = False
    vector_width: int = 0
    mapping: Optional[str] = None  # e.g. "blockIdx.x", "threadIdx.x"
    lower_is_min: bool = False
    upper_is_max: bool = False

    def keyword(self) -> str:
        if self.vector:
            return "forvec"
        if self.parallel:
            return "forall"
        return "for"

    def render(self, indent: int = 0,
               names: Optional[dict] = None) -> list[str]:
        pad = "  " * indent
        lower = _bound_str(self.lowers, "min" if self.lower_is_min else "max",
                           names)
        upper = _bound_str(self.uppers, "max" if self.upper_is_max else "min",
                           names)
        var = self.var if names is None else names.get(self.var, self.var)
        annotations = []
        if self.mapping:
            annotations.append(self.mapping)
        if self.vector and self.vector_width:
            annotations.append(f"width={self.vector_width}")
        suffix = f"  // {', '.join(annotations)}" if annotations else ""
        lines = [f"{pad}{self.keyword()} ({var} = {lower}; "
                 f"{var} <= {upper}; {var}++) {{{suffix}"]
        lines.extend(self.body.render(indent + 1, names))
        lines.append(f"{pad}}}")
        return lines


@dataclass
class Guard:
    """``if (conditions) { body }`` with affine conditions (expr >= 0 etc.)."""

    conditions: list[Constraint]
    body: Seq

    def render(self, indent: int = 0,
               names: Optional[dict] = None) -> list[str]:
        pad = "  " * indent
        conds = []
        for c in self.conditions:
            op = {"<=": "<= 0", ">=": ">= 0", "==": "== 0"}[c.sense]
            conds.append(f"{_expr_str(c.expr, names)} {op}")
        lines = [f"{pad}if ({' && '.join(conds)}) {{"]
        lines.extend(self.body.render(indent + 1, names))
        lines.append(f"{pad}}}")
        return lines


@dataclass
class StatementCall:
    """One statement instance at a schedule-time point.

    ``iterator_exprs`` maps each original iterator to its reconstruction as
    an affine expression of schedule-time variables and parameters.
    ``vector_width`` > 1 marks the call as executing a whole vector of the
    surrounding vector loop's iterations at once.
    """

    statement: Statement
    iterator_exprs: dict[str, LinExpr]
    vector_width: int = 1

    def iterator_values(self, env: dict[str, Rat]) -> dict[str, Rat]:
        """Concrete iterator values at a schedule-time point."""
        out = {}
        for it, expr in self.iterator_exprs.items():
            value = expr.evaluate(env)
            if value.denominator != 1:
                raise ValueError(
                    f"non-integral iterator {it} = {value} in {self.statement.name}")
            out[it] = value
        return out

    def render(self, indent: int = 0,
               names: Optional[dict] = None) -> list[str]:
        pad = "  " * indent
        # Iterator names are the statement's own: never renamed.
        args = ", ".join(f"{it}={_expr_str(e, names)}"
                         for it, e in self.iterator_exprs.items())
        vec = f" /*x{self.vector_width}*/" if self.vector_width > 1 else ""
        return [f"{pad}{self.statement.name}({args});{vec}"]


def render_ast(root: Seq) -> str:
    """Pretty-print a whole AST."""
    return "\n".join(root.render())


def walk(node: Node):
    """Yield every node of the subtree in preorder."""
    yield node
    if isinstance(node, Seq):
        for child in node.children:
            yield from walk(child)
    elif isinstance(node, (Loop, Guard)):
        yield from walk(node.body)


def statements_in(node: Node) -> list[StatementCall]:
    """All statement calls in the subtree, in textual order."""
    return [n for n in walk(node) if isinstance(n, StatementCall)]


def substitute_var(node: Node, name: str, replacement: LinExpr) -> None:
    """Replace variable ``name`` with ``replacement`` in every expression of
    the subtree (loop bounds, guard conditions, iterator reconstructions)."""

    def sub_expr(expr: LinExpr) -> LinExpr:
        return expr.substitute(name, replacement)

    for n in walk(node):
        if isinstance(n, Loop):
            n.lowers = [sub_expr(e) for e in n.lowers]
            n.uppers = [sub_expr(e) for e in n.uppers]
        elif isinstance(n, Guard):
            n.conditions = [Constraint(sub_expr(c.expr), c.sense)
                            for c in n.conditions]
        elif isinstance(n, StatementCall):
            n.iterator_exprs = {it: sub_expr(e)
                                for it, e in n.iterator_exprs.items()}
