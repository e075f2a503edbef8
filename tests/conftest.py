"""Shared test configuration.

Pins a deterministic hypothesis profile so the property tests draw the
same examples on every machine: tier-1 and CI results stay reproducible,
and a failing example reported by CI replays locally.  Set
``HYPOTHESIS_PROFILE=dev`` to get fresh random examples while iterating.
Also provides the ``reference_simulator`` control-arm fixture
(``tests/control_arms.py``) and ``empty_profile_memo``, which modules
that spy on the simulator opt into.
"""

from __future__ import annotations

import os

import pytest

from repro.gpu.profile_cache import PROFILE_MEMO
from tests import control_arms


@pytest.fixture(autouse=True)
def _isolated_run_store(tmp_path, monkeypatch):
    """Point the ambient run store at a per-test directory so CLI tests
    never append run records into the developer's ``.repro/runs``."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))


@pytest.fixture
def reference_simulator(monkeypatch):
    """Simulate every launch on the reference interpreter (see
    ``tests/control_arms.py``)."""
    control_arms.reference_simulator(monkeypatch)


@pytest.fixture
def empty_profile_memo():
    """Start the test from an empty process-wide profile memo and leave it
    empty, so every launch the test checks is simulated whatever ran
    before it.  A module opts in with
    ``pytestmark = pytest.mark.usefixtures("empty_profile_memo")``."""
    PROFILE_MEMO.clear()
    yield
    PROFILE_MEMO.clear()


try:
    from hypothesis import settings
except ImportError:  # hypothesis is a dev extra; tier-1 runs without it
    pass
else:
    settings.register_profile(
        "repro",
        deadline=None,
        derandomize=True,   # examples derive from the test body, not a seed
        print_blob=True,    # failures print a replayable @reproduce_failure
    )
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))
