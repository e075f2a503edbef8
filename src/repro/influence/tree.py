"""The influence constraint tree abstraction (Section IV-A-4, Fig. 3).

A node at depth ``d`` carries affine constraints over schedule coefficients
of *all* statements, from scheduling dimension 0 up to ``d``.  Constraints
are written over dimension-tagged coefficient names produced by
:func:`theta_iter` / :func:`theta_param` / :func:`theta_const`; the
scheduler substitutes already-fixed dimensions with their solved values and
maps current-dimension names onto the ILP's variables.

Sibling order encodes priority: the left-most child is the most desirable
alternative.  The scheduler walks the tree depth-first (Algorithm 1),
falling back to right siblings and ancestor siblings when a constraint set
makes the scheduling ILP infeasible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.solver.problem import Constraint, LinExpr


def theta_iter(stmt: str, dim: int, index: int) -> str:
    """Name of the coefficient of iterator ``index`` at schedule dim ``dim``."""
    return f"theta[{stmt}][{dim}].i{index}"


def theta_param(stmt: str, dim: int, param: str) -> str:
    """Name of the coefficient of parameter ``param`` at dim ``dim``."""
    return f"theta[{stmt}][{dim}].p[{param}]"


def theta_const(stmt: str, dim: int) -> str:
    """Name of the constant coefficient at dim ``dim``."""
    return f"theta[{stmt}][{dim}].0"


_THETA_RE = re.compile(r"^theta\[(?P<stmt>[^]]+)\]\[(?P<dim>\d+)\]\.(?P<what>.+)$")


def parse_theta(name: str) -> Optional[tuple[str, int, str]]:
    """Split a theta-name into (statement, dim, which); None if not one."""
    m = _THETA_RE.match(name)
    if not m:
        return None
    return m.group("stmt"), int(m.group("dim")), m.group("what")


@dataclass
class InfluenceNode:
    """One node of the influence constraint tree.

    Besides hard constraints a node may carry *injected objectives*
    (Section IV-A-4: "Our implementation also supports the specification of
    new objective functions in each node"): affine expressions over
    theta-names minimized lexicographically.  ``objectives`` is ordered by
    priority; each entry is inserted into the scheduler's objective list
    after the proximity levels and before the coefficient-sum levels, so an
    injected objective can steer choices the built-in cost leaves tied
    without overriding reuse-distance minimization.
    """

    constraints: list[Constraint] = field(default_factory=list)
    objectives: list[LinExpr] = field(default_factory=list)
    children: list["InfluenceNode"] = field(default_factory=list)
    require_parallel: bool = False   # meta: dimension must be coincident
    wants_extra_dim: bool = False    # meta: progression may be dropped
    mark_vector: bool = False        # meta: dimension prepared for vector types
    vector_width: int = 0            # lanes for the vector rewrite (2 or 4)
    # Statements allowed a zero/dependent row at this dimension (progression
    # constraints are skipped for them): used by fused variants when a
    # producer lacks the anchor's pinned iterator, so it can sit at a scalar
    # time inside the consumer's loop.
    allow_zero: frozenset = frozenset()
    label: str = ""

    def add_child(self, node: "InfluenceNode") -> "InfluenceNode":
        self.children.append(node)
        return node

    def max_dim_mentioned(self) -> int:
        """Largest schedule dimension referenced by this node's constraints
        or injected objectives (-1 when none)."""
        best = -1
        exprs = [c.expr for c in self.constraints] + list(self.objectives)
        for expr in exprs:
            for name in expr.variables():
                parsed = parse_theta(name)
                if parsed:
                    best = max(best, parsed[1])
        return best

    def validate(self, depth: int) -> None:
        """Constraints at depth ``d`` may mention dims ``0..d`` only."""
        if self.max_dim_mentioned() > depth:
            raise ValueError(
                f"node {self.label or '?'} at depth {depth} mentions "
                f"dimension {self.max_dim_mentioned()}")
        for child in self.children:
            child.validate(depth + 1)


class InfluenceTree:
    """An ordered tree of prioritized scheduling constraint sets."""

    def __init__(self, root: Optional[InfluenceNode] = None):
        self.root = root or InfluenceNode(label="root")

    def validate(self) -> None:
        """Check dimension discipline: the root (depth -1) carries no
        constraints; children of the root constrain dimension 0, etc."""
        if self.root.constraints:
            raise ValueError("the root node must not carry constraints")
        for child in self.root.children:
            child.validate(0)

    def cursor(self) -> Optional["TreeCursor"]:
        """A cursor at the highest-priority first-dimension node, or None
        for an empty tree."""
        if not self.root.children:
            return None
        return TreeCursor(self, [0])

    def n_nodes(self) -> int:
        def count(node: InfluenceNode) -> int:
            return 1 + sum(count(c) for c in node.children)
        return count(self.root) - 1  # exclude the root

    def pretty(self) -> str:
        lines: list[str] = []

        def render(node: InfluenceNode, depth: int, priority: int):
            indent = "  " * depth
            label = node.label or f"C[{depth},{priority}]"
            metas = []
            if node.require_parallel:
                metas.append("parallel")
            if node.wants_extra_dim:
                metas.append("extra-dim")
            meta = f" <{','.join(metas)}>" if metas else ""
            lines.append(f"{indent}{label}{meta}")
            for c in node.constraints:
                lines.append(f"{indent}  | {c}")
            for p, child in enumerate(node.children):
                render(child, depth + 1, p)

        for p, child in enumerate(self.root.children):
            render(child, 0, p)
        return "\n".join(lines)


class TreeCursor:
    """A position in the tree during the scheduler's depth-first walk.

    The path is a list of child indexes from the root; depth == len(path)-1
    is the schedule dimension the current node constrains.
    """

    def __init__(self, tree: InfluenceTree, path: list[int]):
        self.tree = tree
        self.path = list(path)
        self.node  # validate the path eagerly

    @property
    def node(self) -> InfluenceNode:
        node = self.tree.root
        for idx in self.path:
            node = node.children[idx]
        return node

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def right_sibling(self) -> Optional["TreeCursor"]:
        """The next alternative at the same depth, or None."""
        parent = self.tree.root
        for idx in self.path[:-1]:
            parent = parent.children[idx]
        nxt = self.path[-1] + 1
        if nxt < len(parent.children):
            return TreeCursor(self.tree, self.path[:-1] + [nxt])
        return None

    def first_child(self) -> Optional["TreeCursor"]:
        if self.node.children:
            return TreeCursor(self.tree, self.path + [0])
        return None

    def ancestor_right_sibling(self) -> Optional["TreeCursor"]:
        """The closest right sibling of an ancestor (Algorithm 1 line 26),
        scanning from the nearest ancestor upward."""
        for cut in range(len(self.path) - 1, 0, -1):
            parent = self.tree.root
            for idx in self.path[:cut - 1]:
                parent = parent.children[idx]
            nxt = self.path[cut - 1] + 1
            if nxt < len(parent.children):
                return TreeCursor(self.tree, self.path[:cut - 1] + [nxt])
        return None

    def __repr__(self):
        return f"TreeCursor({self.path})"
