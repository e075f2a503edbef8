"""Pluggable simulator backends.

``simulate_kernel`` no longer hard-wires the lane-enumerating interpreter;
it resolves a :class:`SimulatorBackend` from a registry, mirroring
:mod:`repro.solver.backend`.  Two backends ship:

* ``fast`` (default) — the closed-form warp execution of
  :mod:`repro.gpu.fastpath`: shared-environment traversal, analytic
  per-warp sector patterns, and warp-signature memoization.  Counters are
  bitwise-identical to the reference by construction; any unsupported
  construct restarts the whole launch on the reference interpreter
  (counted as ``sim.fastpath.fallback``).
* ``reference`` — the original per-lane interpreter, retained as the
  ground truth the CI parity matrix diffs ``fast`` against.

Selection order for :func:`resolve_simulator`:

1. an explicit ``name`` argument (``--sim`` / ``AkgPipeline(sim=...)``),
2. the ``REPRO_SIM`` environment variable,
3. the default ``"fast"``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

from repro.obs.runtime import get_obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.codegen.cuda import MappedKernel
    from repro.gpu.arch import GpuArch
    from repro.gpu.simulator import KernelProfile

ENV_VAR = "REPRO_SIM"
DEFAULT_SIMULATOR = "fast"


@runtime_checkable
class SimulatorBackend(Protocol):
    """One way of producing a :class:`KernelProfile` for a mapped kernel."""

    name: str

    def run(self, mapped: "MappedKernel", arch: "GpuArch",
            sample_blocks: int) -> "KernelProfile":
        ...


class ReferenceSimulatorBackend:
    """The original lane-enumerating interpreter (ground truth)."""

    name = "reference"

    def run(self, mapped: "MappedKernel", arch: "GpuArch",
            sample_blocks: int) -> "KernelProfile":
        from repro.gpu.simulator import _Simulator, _execute_kernel
        profile, _ = _execute_kernel(mapped, arch, sample_blocks, _Simulator)
        return profile


class FastSimulatorBackend:
    """Closed-form warp simulation with whole-launch reference fallback.

    Counter parity with ``reference`` is bitwise (enforced by tests and the
    CI parity matrix); a launch using a construct the fast interpreter does
    not model (e.g. a lane-variant mapped-loop lower bound) is re-run from
    scratch on the reference interpreter so mid-launch cache state never
    mixes the two.
    """

    name = "fast"

    def run(self, mapped: "MappedKernel", arch: "GpuArch",
            sample_blocks: int) -> "KernelProfile":
        from repro.gpu.fastpath import FallbackNeeded, _FastSimulator
        from repro.gpu.simulator import _Simulator, _execute_kernel
        metrics = get_obs().metrics
        try:
            profile, sim = _execute_kernel(mapped, arch, sample_blocks,
                                           _FastSimulator)
        except FallbackNeeded:
            if metrics.enabled:
                metrics.count("sim.fastpath.fallback")
            profile, _ = _execute_kernel(mapped, arch, sample_blocks,
                                         _Simulator)
            return profile
        if metrics.enabled:
            if sim.analytic_builds:
                metrics.count("sim.fastpath.analytic", sim.analytic_builds)
            if sim.memo_hits:
                metrics.count("sim.fastpath.memo_hits", sim.memo_hits)
            if sim.pruned_iterations:
                metrics.count("sim.fastpath.pruned_iterations",
                              sim.pruned_iterations)
            if sim.collapsed_issues:
                metrics.count("sim.fastpath.collapsed_issues",
                              sim.collapsed_issues)
        return profile


_REGISTRY: dict[str, Callable[[], SimulatorBackend]] = {}
_INSTANCES: dict[str, SimulatorBackend] = {}


def register_simulator(name: str,
                       factory: Callable[[], SimulatorBackend]) -> None:
    """Register (or replace) a simulator backend factory under ``name``."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def available_simulators() -> list[str]:
    """Registered simulator names, registration order."""
    return list(_REGISTRY)


def resolve_simulator(name: Optional[str] = None) -> SimulatorBackend:
    """Resolve a backend by name / ``REPRO_SIM`` / default.

    Instances are cached per name — backends are expected to be stateless
    (all per-launch state lives in the simulator instances they create).
    """
    chosen = name or os.environ.get(ENV_VAR, "") or DEFAULT_SIMULATOR
    factory = _REGISTRY.get(chosen)
    if factory is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown simulator backend {chosen!r} (registered: {known})")
    instance = _INSTANCES.get(chosen)
    if instance is None:
        instance = _INSTANCES[chosen] = factory()
    return instance


register_simulator(FastSimulatorBackend.name, FastSimulatorBackend)
register_simulator(ReferenceSimulatorBackend.name, ReferenceSimulatorBackend)
