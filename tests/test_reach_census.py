"""The reach census on a fixture module: fork-following, decorator
matching, and the allowlist check."""

import textwrap

from tests import reach_census

FIXTURE = textwrap.dedent('''\
    import functools


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)
        return wrapper


    @deco
    def decorated():
        return 1


    def in_child():
        return 2


    def never():
        return 3
''')

SCRIPT = textwrap.dedent('''\
    import os

    import fixmod

    fixmod.decorated()
    pid = os.fork()
    if pid == 0:
        fixmod.in_child()
        os._exit(0)
    os.waitpid(pid, 0)
''')


def _census(tmp_path, capsys, allowlist: str):
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "fixmod.py").write_text(FIXTURE)
    (root / "run.py").write_text(SCRIPT)
    path = tmp_path / "allow.txt"
    path.write_text(allowlist)
    code = reach_census.main(
        ["--check", "--allowlist", str(path)],
        matrix=[reach_census.Invocation(str(root / "run.py"))],
        root=root)
    out, err = capsys.readouterr()
    return code, out, err


def test_decorated_function_keyed_by_first_decorator_line(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "fixmod.py").write_text(FIXTURE)
    functions = reach_census.list_functions(root)
    assert functions["fixmod.py", 11].qualname == "decorated"   # "@deco"
    assert functions["fixmod.py", 5].qualname == "deco.<locals>.wrapper"


def test_only_the_uncalled_function_is_reported(tmp_path, capsys):
    code, out, err = _census(tmp_path, capsys, "")
    # in_child ran only in the forked child, which left through os._exit.
    assert "fixmod.py::never" in out
    assert "in_child" not in out and "decorated" not in out
    assert code == 1
    assert "unreached and not allowlisted: fixmod.py::never" in err


def test_allowlist_check(tmp_path, capsys):
    code, _, err = _census(tmp_path, capsys, "fixmod.py::never  # kept\n")
    assert code == 0, err
    code, _, err = _census(tmp_path, capsys,
                           "fixmod.py::never  # kept\n"
                           "fixmod.py::in_child  # stale\n"
                           "fixmod.py::gone  # deleted\n")
    assert code == 1
    assert "allowlisted but reached: fixmod.py::in_child" in err
    assert "allowlisted but no such function: fixmod.py::gone" in err
