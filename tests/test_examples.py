"""Smoke tests: the runnable examples execute end to end.

The heavyweight examples (transpose shapes, the running example) are
covered by the benchmarks; here we run the three fast ones, the tile
autotuner included, and check their output tells the story they promise.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "baseline (isl-style)" in out
    assert "influenced (+ vector types)" in out
    assert "speedup over baseline" in out


def test_constraint_tree_explorer(capsys):
    out = run_example("constraint_tree_explorer.py", capsys)
    assert "sibling fallback" in out
    assert "influence abandoned: True" in out


def test_tile_autotune(capsys):
    out = run_example("tile_autotune.py", capsys)
    assert "<== best" in out
    assert "speedup over untiled" in out


def test_examples_exist_and_are_executable():
    expected = {"quickstart.py", "running_example.py",
                "transpose_resnet.py", "constraint_tree_explorer.py",
                "tile_autotune.py"}
    found = {p.name for p in EXAMPLES.glob("*.py")}
    assert expected <= found
