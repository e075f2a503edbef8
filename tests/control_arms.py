"""The control arm that parity tests compare production against.

Production has one simulator.  The arm switches off what its engine adds
over the plain path, so a run under it shows that the addition never
changes a result:

* :func:`reference_simulator` — every launch runs on the lane-by-lane
  reference interpreter instead of the closed-form fast path.

``conftest.py`` exposes it as a fixture of the same name; hypothesis
tests, which cannot take function-scoped fixtures, apply it to a
``pytest.MonkeyPatch.context()``.
"""

import repro.gpu.simulator as simulator


def reference_simulator(monkeypatch) -> None:
    monkeypatch.setattr(simulator, "_simulate", simulator.simulate_reference)
