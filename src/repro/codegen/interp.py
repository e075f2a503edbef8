"""Sequential AST interpreter.

Executes a generated loop AST in plain sequential order (mapping
annotations are ignored: mapped loops run like ordinary loops, vector loops
run lane by lane) and yields every statement instance with its reconstructed
iterator values.  Used to validate that a schedule + codegen round trip
preserves the kernel's semantics: the executed instances must be exactly the
iteration domains, and every dependence pair must run in order.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.codegen.ast import Guard, Loop, Seq, StatementCall
from repro.ir.kernel import Kernel
from repro.ir.statement import Statement
from repro.linalg.rational import Rat, frac


def execute(ast: Seq, params: dict[str, int]) -> Iterator[tuple[Statement, dict[str, Rat]]]:
    """Yield ``(statement, iterator values)`` in sequential execution order."""
    env: dict[str, Rat] = {p: frac(v) for p, v in params.items()}
    yield from _run(ast, env)


def _run(node, env: dict[str, Rat]):
    if isinstance(node, Seq):
        for child in node.children:
            yield from _run(child, env)
    elif isinstance(node, Loop):
        lowers = [e.evaluate(env) for e in node.lowers]
        uppers = [e.evaluate(env) for e in node.uppers]
        lo = math.ceil(min(lowers) if node.lower_is_min else max(lowers))
        hi = math.floor(max(uppers) if node.upper_is_max else min(uppers))
        for value in range(lo, hi + 1):
            env[node.var] = value
            yield from _run(node.body, env)
        env.pop(node.var, None)
    elif isinstance(node, Guard):
        if all(c.satisfied_by(env) for c in node.conditions):
            yield from _run(node.body, env)
    elif isinstance(node, StatementCall):
        yield node.statement, node.iterator_values(env)
    else:
        raise TypeError(f"unknown AST node {node!r}")


def check_semantics(kernel: Kernel, ast: Seq) -> list[str]:
    """Exhaustively validate an AST against the kernel's semantics.

    Checks (under the kernel's concrete parameters):

    1. every statement executes exactly its iteration domain (no duplicates,
       no misses);
    2. conflicting accesses to the same memory cell (at least one write)
       happen in the same relative order as in the original program.

    Returns a list of human-readable problems (empty == equivalent).
    """
    problems: list[str] = []
    executed: dict[str, list[dict[str, Rat]]] = {
        s.name: [] for s in kernel.statements}
    order: list[tuple[Statement, dict[str, Rat]]] = []
    for statement, point in execute(ast, kernel.params):
        executed[statement.name].append(point)
        order.append((statement, point))

    # 1. Coverage: executed points == domain points, exactly once.
    for s in kernel.statements:
        expected = {tuple(sorted(p.items()))
                    for p in s.iteration_points(kernel.params)}
        got_list = [tuple(sorted(p.items())) for p in executed[s.name]]
        got = set(got_list)
        if len(got_list) != len(got):
            problems.append(f"{s.name}: duplicated instances")
        missing = expected - got
        extra = got - expected
        if missing:
            problems.append(f"{s.name}: {len(missing)} missing instances "
                            f"(e.g. {sorted(missing)[0]})")
        if extra:
            problems.append(f"{s.name}: {len(extra)} extra instances "
                            f"(e.g. {sorted(extra)[0]})")
    if problems:
        return problems

    # 2. Conflict order: replay memory accesses; for every cell, the
    # sequence of (original date, is_write) must keep writes ordered
    # against every conflicting access exactly as originally.
    position: dict[tuple[str, tuple], int] = {}
    for index, (statement, point) in enumerate(order):
        position[(statement.name, tuple(sorted(point.items())))] = index

    cells: dict[tuple[str, int], list[tuple[tuple, bool, tuple]]] = {}
    for s in kernel.statements:
        for point in s.iteration_points(kernel.params):
            for access in s.accesses:
                env = dict(point)
                env.update({p: frac(v) for p, v in kernel.params.items()})
                cell = (access.tensor.name, access.linearized(env))
                key = (s.name, tuple(sorted(point.items())))
                cells.setdefault(cell, []).append(
                    (s.original_date(point), access.is_write, key))
    for cell, touches in cells.items():
        if not any(t[1] for t in touches):
            continue
        for a in touches:
            for b in touches:
                if a is b or not (a[1] or b[1]):
                    continue
                if a[0] < b[0] and position[a[2]] > position[b[2]]:
                    problems.append(
                        f"conflict on {cell[0]}[{cell[1]}]: "
                        f"{a[2]} must precede {b[2]}")
                    if len(problems) > 5:
                        return problems
    return problems
