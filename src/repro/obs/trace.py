"""Hierarchical span tracing with Chrome trace-event export.

A :class:`Tracer` records *spans* — named intervals with monotonic
start/end timestamps, a process/worker identity, arbitrary attributes and
nested children — plus *instant events* attached to the innermost open
span.  Traces serialize to a JSON-safe payload (what parallel workers ship
back to the coordinator) and export as Chrome trace-event JSON
(``{"traceEvents": [...]}``), openable directly in ``chrome://tracing`` or
https://ui.perfetto.dev.

Clock normalization: ``time.perf_counter()`` has an arbitrary per-process
epoch, so every tracer captures the wall-clock offset of its process at
construction and serializes *wall-anchored* timestamps.  Folding worker
payloads into one tracer therefore yields a single coherent timeline.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Span:
    """One named interval; children and events nest strictly inside it."""

    __slots__ = ("name", "start", "end", "pid", "tid", "attrs",
                 "children", "events")

    def __init__(self, name: str, start: float, pid: int, tid: int,
                 attrs: Optional[dict] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.pid = pid
        self.tid = tid
        self.attrs: dict = attrs or {}
        self.children: list[Span] = []
        self.events: list[dict] = []  # instant events: {name, ts, attrs}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def as_dict(self) -> dict:
        """JSON-safe snapshot (recursive)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
            "events": [dict(e) for e in self.events],
            "children": [c.as_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls(payload["name"], payload["start"],
                   payload.get("pid", 0), payload.get("tid", 0),
                   dict(payload.get("attrs", {})))
        span.end = payload.get("end", payload["start"])
        span.events = [dict(e) for e in payload.get("events", ())]
        span.children = [cls.from_dict(c) for c in payload.get("children", ())]
        return span


class _NullSpan:
    """Shared no-op span yielded by a disabled tracer."""

    __slots__ = ()
    attrs: dict = {}

    def set(self, **attrs) -> None:  # pragma: no cover - trivial
        pass


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Handle given to ``with tracer.span(...) as sp`` bodies."""

    __slots__ = ("_span",)

    def __init__(self, span: Span):
        self._span = span

    def set(self, **attrs) -> None:
        """Attach attributes to the underlying span."""
        self._span.attrs.update(attrs)


class Tracer:
    """Records hierarchical spans on one worker.

    ``worker`` defaults to the OS pid; parallel evaluation workers keep the
    default so merged traces distinguish processes.  A disabled tracer
    costs one boolean check per call.
    """

    def __init__(self, enabled: bool = True, worker: Optional[int] = None):
        self.enabled = enabled
        self.worker = os.getpid() if worker is None else worker
        # Wall-anchor for perf_counter so cross-process timelines align.
        self._offset = time.time() - time.perf_counter()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- recording -----------------------------------------------------------

    def now(self) -> float:
        """Monotonic timestamp anchored to the wall clock (seconds)."""
        return time.perf_counter() + self._offset

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[object]:
        """Open a span; nests under the innermost open span."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = Span(name, self.now(), self.worker,
                    threading.get_ident() & 0xFFFF, attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield _LiveSpan(span)
        finally:
            span.end = self.now()
            self._stack.pop()

    def event(self, name: str, **attrs) -> None:
        """Record an instant event inside the innermost open span (or as a
        degenerate root span when none is open)."""
        if not self.enabled:
            return
        record = {"name": name, "ts": self.now(), "attrs": attrs}
        if self._stack:
            self._stack[-1].events.append(record)
        else:
            span = Span(name, record["ts"], self.worker,
                        threading.get_ident() & 0xFFFF, attrs)
            span.end = record["ts"]
            self.roots.append(span)

    # -- (de)serialization and merging ---------------------------------------

    def as_dict(self) -> dict:
        """JSON-safe payload: ``{"worker": ..., "spans": [...]}``."""
        return {"worker": self.worker,
                "spans": [s.as_dict() for s in self.roots]}

    def merge_dict(self, payload: dict) -> None:
        """Fold another tracer's payload into this timeline.

        Spans arrive wall-anchored, so no per-worker offset arithmetic is
        needed beyond keeping the roots sorted by start time.
        """
        for entry in payload.get("spans", ()):
            self.roots.append(Span.from_dict(entry))
        self.roots.sort(key=lambda s: s.start)

    # -- export ---------------------------------------------------------------

    def _origin(self) -> float:
        return min((s.start for s in self.roots), default=0.0)

    def chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Spans become complete (``"ph": "X"``) events with microsecond
        ``ts``/``dur`` relative to the earliest span; instant events become
        thread-scoped ``"ph": "i"`` events.
        """
        origin = self._origin()
        events: list[dict] = []

        def emit(span: Span) -> None:
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": max(0.0, span.duration) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "cat": span.name.split(".", 1)[0],
                "args": dict(span.attrs),
            })
            for record in span.events:
                events.append({
                    "name": record["name"],
                    "ph": "i",
                    "s": "t",
                    "ts": (record["ts"] - origin) * 1e6,
                    "pid": span.pid,
                    "tid": span.tid,
                    "cat": record["name"].split(".", 1)[0],
                    "args": dict(record.get("attrs", {})),
                })
            for child in span.children:
                emit(child)

        for root in self.roots:
            emit(root)
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}
