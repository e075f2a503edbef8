"""The ambient observability handle.

Deeply nested code (the simplex kernel, the warp simulator) cannot be
handed a tracer through every call signature without polluting the whole
API.  Instead an :class:`Obs` bundle — one tracer plus one metrics
registry — is installed as the *ambient* handle for the duration of a
compilation session or measurement, and instrumented code fetches it with
:func:`get_obs`.

The default ambient handle is :data:`NULL_OBS`: a disabled tracer and a
disabled registry, so instrumentation outside a session costs one module
-global read plus an ``enabled`` check per recording call (the <5%%
overhead budget of ``bench_scheduler_perf``).

The handle is process-global, not thread-local: parallelism in this
code base is process-based (``ProcessPoolExecutor``), and each worker
process installs its own handle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class Obs:
    """One tracer plus one metrics registry."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @classmethod
    def disabled(cls) -> "Obs":
        return cls(Tracer(enabled=False), MetricsRegistry(enabled=False))

    # Convenience shims so call sites stay one-liners.

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        self.tracer.event(name, **attrs)

    def observe(self, name: str, value: float, **kwargs) -> None:
        self.metrics.observe(name, value, **kwargs)


NULL_OBS = Obs.disabled()
_current: Obs = NULL_OBS


def get_obs() -> Obs:
    """The ambient handle (``NULL_OBS`` outside any session)."""
    return _current


@contextmanager
def use_obs(obs: Obs) -> Iterator[Obs]:
    """Install ``obs`` as the ambient handle for the ``with`` body."""
    global _current
    previous = _current
    _current = obs
    try:
        yield obs
    finally:
        _current = previous
