"""Reach census: the functions of ``src/repro`` that no command calls.

A ``sys.setprofile`` hook records the first call of every function whose
file lies under the source root, across a fixed matrix of invocations:
every CLI subcommand with every flag set at least once, the exact
``repro`` invocations of ``.github/workflows/ci.yml``, and the five
``examples/``.  Each invocation runs in a fresh interpreter.  Forked pool
workers inherit the hook and leave through ``os._exit``, so the hook
writes each newly seen function to the trace file at once (one
``O_APPEND`` write) instead of dumping at exit.

Functions are matched by ``(file, co_firstlineno)``: for a decorated
function that is the line of its first decorator.  A function nested in
a function that is itself never called is counted with its parent.

Every unreached function must be listed, with a one-line reason, in
``tests/reach_allowlist.txt``; ``--check`` fails on an unreached function
missing from it, and on an entry that is now reached or names no
function.  Run from the repository root:

    PYTHONPATH=src python -m tests.reach_census [--check]
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"

KERNEL = """\
kernel census_demo (M=256, N=64)
tensor A[M][N]
tensor B[M][N]
tensor C[M][N]
S0[i: 0..M, j: 0..N]: B[i][j] = relu(A[i][j])
S1[i: 0..M, j: 0..N]: C[j][i] = B[i][j] + A[i][j]
"""


@dataclass(frozen=True)
class Invocation:
    """One census run: ``command`` is ``repro ARGS...`` or a script path
    and arguments, with ``{tmp}`` and ``{kdl}`` filled in;
    ``fault_plan`` sets ``$REPRO_FAULT_PLAN``; the run must exit with
    ``exit_code``."""

    command: str
    fault_plan: str = ""
    exit_code: int = 0


_LADDER = "compile=timeout@variant=infl&influence=True"


def _matrix(*rows) -> tuple[Invocation, ...]:
    """A row is a command, or ``(command, fault_plan[, exit_code])``."""
    return tuple(Invocation(*row) if isinstance(row, tuple)
                 else Invocation(row) for row in rows)


MATRIX = _matrix(
    # compile / scenarios / table1
    "repro -v compile {kdl} --all-variants --measure --sample-blocks 2 "
    "--max-threads 128",
    "repro compile {kdl} --variant tvm --no-record",
    "repro scenarios {kdl}",
    "repro table1 --metrics {tmp}/table1.json",
    # table2: serial with a checkpoint, its --resume, and a fork pool
    "repro table2 --networks LSTM,BERT --limit 2 --seed 1 "
    "--sample-blocks 2 --deadline-ms 60000 --verify --trace {tmp}/t2.json "
    "--metrics {tmp}/t2m.json --runs-dir {tmp}/runs",
    "repro -q table2 --networks LSTM,BERT --limit 2 --seed 1 "
    "--sample-blocks 2 --deadline-ms 60000 --verify --resume",
    "repro report latest",
    "repro table2 --networks LSTM,VGG16 --limit 2 --jobs 2 --trace "
    "{tmp}/t2c.json --no-checkpoint --no-record",
    # profile, and the report of its record
    "repro profile lstm --limit 2 --sample-blocks 2 --max-threads 128 "
    "--seed 1 --variant infl --deadline-ms 60000 --trace {tmp}/p.json "
    "--metrics {tmp}/pm.json",
    "repro report latest",
    "repro profile bert --limit 1 --no-record",
    # explain and obs
    "repro explain lstm --limit 2 --variant infl --max-threads 128 "
    "--seed 1",
    "repro explain LSTM --run latest --operator lstm_op002_elementwise_vec",
    "repro obs list",
    "repro obs show latest",
    "repro obs diff latest~1 latest --threshold 0.5 --fail-on-regression",
    # verify (goldens re-blessed into a temp dir; every check off), fuzz
    "repro verify --networks LSTM --limit 1 --seed 0 --sample-blocks 2 "
    "--max-threads 256 --update-goldens --goldens-dir {tmp}/goldens "
    "--corpus-dir {tmp}/corpus --metrics {tmp}/vm.json",
    "repro verify --no-goldens --no-families --no-oracle "
    "--no-metamorphic --no-corpus",
    "repro fuzz --cases 3 --seed 3 --corpus-dir {tmp}/corpus "
    "--metrics {tmp}/fm.json",
    # the other fault sites
    ("repro table2 --networks LSTM --limit 2 --sample-blocks 2",
     "scheduler.dimension=infeasible@dim=1;"
     "scheduler.dimension=timeout:p=0.3", 1),
    ("repro compile {kdl}", "store.append=short-write"),
    ("repro table2 --networks LSTM --limit 1 --sample-blocks 2",
     "store.append=enospc@kind=checkpoint"),
    ("repro table2 --networks LSTM --limit 1 --jobs 2 --sample-blocks 2",
     "compile=scheduling-error", 1),
    # .github/workflows/ci.yml, verbatim apart from the output paths
    "repro -q table2 --networks LSTM --limit 1 --sample-blocks 2 --jobs 2 "
    "--trace {tmp}/table2-trace.json --metrics {tmp}/table2-metrics.json",
    "repro -q report latest",
    "repro verify --metrics {tmp}/verify-metrics.json",
    ("repro verify --networks LSTM --no-corpus", "compile=timeout", 1),
    "repro fuzz --budget 30 --seed 7 --no-corpus",
    ("repro table2 --networks LSTM --limit 1 --sample-blocks 2 "
     "--allow-degraded", _LADDER),
    ("repro table2 --networks LSTM --limit 1 --sample-blocks 2",
     _LADDER, 1),
    "examples/quickstart.py",
    "examples/running_example.py",
    "examples/constraint_tree_explorer.py",
    "examples/tile_autotune.py",
    "examples/transpose_resnet.py",
)


# -- the static side ----------------------------------------------------------


@dataclass
class Function:
    path: str          # relative to the source root
    qualname: str
    line: int          # co_firstlineno: the first decorator's line, if any
    lines: int
    parent: Optional[tuple[str, int]] = None   # enclosing function's key

    @property
    def key(self) -> tuple[str, int]:
        return self.path, self.line

    @property
    def name(self) -> str:
        return f"{self.path}::{self.qualname}"


def list_functions(root: Path) -> dict[tuple[str, int], Function]:
    """Every ``def`` under ``root``, keyed by ``(relative path, line)``."""
    functions: dict[tuple[str, int], Function] = {}

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list]
                           + [child.lineno])
                function = Function(path, prefix + child.name, line,
                                    child.end_lineno - line + 1, parent)
                functions[function.key] = function
                visit(child, path, f"{function.qualname}.<locals>.",
                      function.key)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", parent)
            else:
                visit(child, path, prefix, parent)

    for file in sorted(root.rglob("*.py")):
        path = file.relative_to(root).as_posix()
        visit(ast.parse(file.read_text(), str(file)), path, "", None)
    return functions


# -- the dynamic side ---------------------------------------------------------


def install(trace_path: str, root: Path) -> None:
    """Append ``path<TAB>co_firstlineno`` to ``trace_path`` the first time
    this process (or any process it forks) calls a function under
    ``root``."""
    prefix = str(root.resolve()) + os.sep
    fd = os.open(trace_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen: dict[int, object] = {}   # id(code) -> code, kept alive

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(prefix):
            os.write(fd, f"{filename[len(prefix):]}\t"
                         f"{code.co_firstlineno}\n".encode())

    sys.setprofile(hook)
    threading.setprofile(hook)
    os.register_at_fork(after_in_child=lambda: sys.setprofile(hook))


def read_trace(trace_path: str) -> set[tuple[str, int]]:
    reached = set()
    if os.path.exists(trace_path):
        with open(trace_path) as lines:
            for line in lines:
                path, _, lineno = line.rstrip("\n").partition("\t")
                reached.add((Path(path).as_posix(), int(lineno)))
    return reached


def _child(argv: list[str]) -> None:
    """``--child TRACE ROOT PROGRAM ARGS...``: run ``repro`` or a script
    under the hook."""
    import runpy
    trace, root, program, *rest = argv
    install(trace, Path(root))
    sys.argv = [program, *rest]
    if program == "repro":
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    else:
        sys.path.insert(0, os.path.dirname(os.path.abspath(program)))
        runpy.run_path(program, run_name="__main__")


def run_matrix(matrix: Sequence[Invocation], trace_path: str, root: Path,
               work: str) -> list[str]:
    """Run every invocation under the hook; returns the problems (an
    invocation that ended with an unexpected status)."""
    kdl = os.path.join(work, "census_demo.kdl")
    with open(kdl, "w") as out:
        out.write(KERNEL)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(REPO)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p]),
        REPRO_RUNS_DIR=os.path.join(work, "runs"))
    problems = []
    for invocation in matrix:
        program, *argv = [arg.format(tmp=work, kdl=kdl)
                          for arg in invocation.command.split()]
        done = subprocess.run(
            [sys.executable, "-m", "tests.reach_census", "--child",
             trace_path, str(root), program, *argv],
            cwd=REPO, env=dict(env, REPRO_FAULT_PLAN=invocation.fault_plan),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        print(f"  [{done.returncode}] {invocation.command}", file=sys.stderr)
        if done.returncode != invocation.exit_code:
            problems.append(f"{invocation.command}: exit {done.returncode}, "
                            f"expected {invocation.exit_code}\n"
                            f"{done.stderr[-2000:]}")
    return problems


# -- the report ---------------------------------------------------------------


def unreached(functions: dict, reached: set) -> list[Function]:
    """Never-called functions whose enclosing function (if any) was
    called: a function inside an unreached one goes with its parent."""
    return [f for key, f in sorted(functions.items())
            if key not in reached
            and (f.parent is None or f.parent in reached)]


def read_allowlist(path: Path) -> dict[str, str]:
    """``{path::qualname: reason}`` from ``NAME  # reason`` lines."""
    entries = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            name, _, reason = line.partition("#")
            entries[name.strip()] = reason.strip()
    return entries


def check(functions: dict, reached: set,
          allowlist: dict[str, str]) -> list[str]:
    """Unreached functions missing from the allowlist, and entries that
    are reached, unreasoned or name no function."""
    missing = unreached(functions, reached)
    names = {f.name for f in missing}
    problems = [f"unreached and not allowlisted: {f.name} ({f.lines} lines)"
                for f in missing if f.name not in allowlist]
    known = {f.name for f in functions.values()}
    for name, reason in allowlist.items():
        if name not in known:
            problems.append(f"allowlisted but no such function: {name}")
        elif name not in names:
            problems.append(f"allowlisted but reached: {name}")
        elif not reason:
            problems.append(f"allowlisted without a reason: {name}")
    return problems


def main(argv: Optional[Sequence[str]] = None, *,
         matrix: Sequence[Invocation] = MATRIX,
         root: Path = SRC / "repro") -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        _child(argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail unless every unreached function is "
                             "allowlisted and every entry is unreached")
    parser.add_argument("--allowlist", type=Path, default=ALLOWLIST)
    args = parser.parse_args(argv)

    functions = list_functions(root)
    with tempfile.TemporaryDirectory(prefix="reach-census-") as work:
        trace = os.path.join(work, "trace.tsv")
        problems = run_matrix(matrix, trace, root, work)
        reached = read_trace(trace)
    if problems:
        print("census invalid, an invocation ended unexpectedly:",
              *problems, sep="\n", file=sys.stderr)
        return 1
    missing = unreached(functions, reached)
    allowlist = read_allowlist(args.allowlist)
    for f in missing:
        reason = allowlist.get(f.name, "NOT ALLOWLISTED")
        print(f"{f.lines:5d}  {f.name}  # {reason}")
    # Nested functions lie inside their parent's lines: count those once.
    total = sum(f.lines for f in functions.values() if f.parent is None)
    print(f"unreached: {len(missing)} of {len(functions)} functions, "
          f"{sum(f.lines for f in missing)} of {total} function lines "
          f"({len(matrix)} invocations)")
    if not args.check:
        return 0
    problems = check(functions, reached, allowlist)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
