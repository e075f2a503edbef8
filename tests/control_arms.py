"""The two control arms that parity tests compare production against.

Production has one solver and one simulator.  Each arm switches off what
its engine adds over the plain path, so a run under it shows that the
additions never change a result:

* :func:`cold_solver` — no solve is replayed from the content-keyed cache
  and no warm-start candidate bounds branch and bound;
* :func:`reference_simulator` — every launch runs on the lane-by-lane
  reference interpreter instead of the closed-form fast path.

``conftest.py`` exposes both as fixtures of the same names; hypothesis
tests, which cannot take function-scoped fixtures, apply them to a
``pytest.MonkeyPatch.context()``.
"""

import repro.gpu.simulator as simulator
import repro.solver.problem as problem


def cold_solver(monkeypatch) -> None:
    monkeypatch.setattr(problem, "get_solve_cache", lambda: None)
    monkeypatch.setattr(problem, "incumbent_bound", lambda *args: None)


def reference_simulator(monkeypatch) -> None:
    monkeypatch.setattr(simulator, "_simulate", simulator.simulate_reference)
