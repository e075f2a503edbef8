"""The control arm that parity tests compare production against.

Production has one simulator.  The arm switches off what its engine adds
over the plain path, so a run under it shows that the addition never
changes a result:

* :func:`reference_simulator` — every launch runs on the lane-by-lane
  reference interpreter instead of the closed-form fast path.  The arm
  installs an empty profile memo for its duration, so no profile the
  fast path simulated serves a launch under the arm, and no profile the
  arm simulated outlives it.

``conftest.py`` exposes it as a fixture of the same name; hypothesis
tests, which cannot take function-scoped fixtures, apply it to a
``pytest.MonkeyPatch.context()``.
"""

import repro.gpu.simulator as simulator
from repro.gpu.profile_cache import PROFILE_MEMO
from repro.memo import Memo


def _simulate_reference(mapped, arch, sample_blocks):
    return simulator.simulate_reference(mapped, arch, sample_blocks), ()


def reference_simulator(monkeypatch) -> None:
    monkeypatch.setattr(simulator, "PROFILE_MEMO",
                        Memo(PROFILE_MEMO.name, PROFILE_MEMO.max_entries))
    monkeypatch.setattr(simulator, "_simulate", _simulate_reference)
