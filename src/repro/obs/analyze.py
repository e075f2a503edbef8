"""Cross-run analytics over the persistent run store.

``repro obs diff RUN_A RUN_B`` — :func:`diff_runs` compares two stored
records section by section: per-operator variant times (flagged only
beyond a significance threshold, so timer noise does not read as change),
schedule-hash changes (any change is significant — the compilation model
is deterministic), status/degradation transitions, per-kernel profile
times, per-pass timings and counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Relative time change below which a delta is reported as noise.
DEFAULT_SIGNIFICANCE = 0.05


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


@dataclass
class Delta:
    """One compared quantity across two runs."""

    name: str
    before: Optional[float]
    after: Optional[float]

    @property
    def ratio(self) -> float:
        if not self.before or self.after is None:
            return float("nan")
        return self.after / self.before

    def significant(self, threshold: float) -> bool:
        if self.before is None or self.after is None:
            return True  # appeared / disappeared
        if not self.before:
            return bool(self.after)
        return abs(self.ratio - 1.0) > threshold

    def regressed(self, threshold: float) -> bool:
        """Strictly slower beyond the threshold (higher = worse)."""
        return (self.before is not None and self.after is not None
                and bool(self.before) and self.ratio - 1.0 > threshold)

    def render(self) -> str:
        if self.before is None:
            return f"{self.name}: (new) -> {_fmt_seconds(self.after or 0.0)}"
        if self.after is None:
            return f"{self.name}: {_fmt_seconds(self.before)} -> (gone)"
        return (f"{self.name}: {_fmt_seconds(self.before)} -> "
                f"{_fmt_seconds(self.after)} ({self.ratio:.2f}x)")


@dataclass
class RunDiff:
    """Structured comparison of two run records."""

    run_a: str
    run_b: str
    threshold: float = DEFAULT_SIGNIFICANCE
    time_deltas: list = field(default_factory=list)      # Delta, operators
    kernel_deltas: list = field(default_factory=list)    # Delta, profiles
    pass_deltas: list = field(default_factory=list)      # Delta, pass seconds
    schedule_changes: list = field(default_factory=list)  # (name, old, new)
    status_changes: list = field(default_factory=list)    # (name, old, new)
    counter_deltas: list = field(default_factory=list)    # (name, old, new)

    @property
    def n_schedule_changes(self) -> int:
        return len(self.schedule_changes)

    def significant_deltas(self) -> list:
        return [d for d in (self.time_deltas + self.kernel_deltas)
                if d.significant(self.threshold)]

    def regressions(self, threshold: Optional[float] = None) -> list:
        limit = self.threshold if threshold is None else threshold
        return [d for d in (self.time_deltas + self.kernel_deltas)
                if d.regressed(limit)]

    def render(self) -> str:
        lines = [f"diff {self.run_a} -> {self.run_b} "
                 f"(significance threshold {self.threshold * 100:.0f}%)"]
        lines.append(f"schedule-hash changes: {self.n_schedule_changes}")
        for name, old, new in self.schedule_changes:
            lines.append(f"  {name}: {old} -> {new}")
        for name, old, new in self.status_changes:
            lines.append(f"status {name}: {old} -> {new}")
        significant = self.significant_deltas()
        label = "timing deltas beyond threshold"
        if significant:
            lines.append(f"{label}: {len(significant)}")
            for delta in significant:
                lines.append(f"  {delta.render()}")
        else:
            lines.append(f"{label}: none")
        if self.pass_deltas:
            shown = [d for d in self.pass_deltas
                     if d.significant(self.threshold)]
            if shown:
                lines.append("per-pass time deltas beyond threshold:")
                for delta in shown:
                    lines.append(f"  {delta.render()}")
        if self.counter_deltas:
            lines.append("counter deltas:")
            for name, old, new in self.counter_deltas:
                lines.append(f"  {name}: {old:g} -> {new:g}")
        return "\n".join(lines)


def _operator_map(record: dict) -> dict:
    return {op.get("name", ""): op for op in record.get("operators", ())}


def _kernel_map(record: dict) -> dict:
    return {k.get("name", ""): k for k in record.get("kernels", ())}


def diff_runs(record_a: dict, record_b: dict,
              threshold: float = DEFAULT_SIGNIFICANCE) -> RunDiff:
    """Compare two stored run records (any mix of record kinds)."""
    diff = RunDiff(run_a=record_a.get("run_id", "?"),
                   run_b=record_b.get("run_id", "?"),
                   threshold=threshold)

    ops_a, ops_b = _operator_map(record_a), _operator_map(record_b)
    for name in sorted(set(ops_a) | set(ops_b)):
        a, b = ops_a.get(name), ops_b.get(name)
        if a is None or b is None:
            diff.status_changes.append(
                (name, a.get("status") if a else "(absent)",
                 b.get("status") if b else "(absent)"))
            continue
        if a.get("status") != b.get("status") \
                or a.get("degradation") != b.get("degradation"):
            old = f"{a.get('status')}{a.get('degradation') or ''}"
            new = f"{b.get('status')}{b.get('degradation') or ''}"
            diff.status_changes.append((name, old, new))
        times_a, times_b = a.get("times", {}), b.get("times", {})
        for variant in sorted(set(times_a) | set(times_b)):
            diff.time_deltas.append(Delta(f"{name}/{variant}",
                                          times_a.get(variant),
                                          times_b.get(variant)))
        hashes_a = a.get("schedule_hashes", {})
        hashes_b = b.get("schedule_hashes", {})
        for variant in sorted(set(hashes_a) | set(hashes_b)):
            old = hashes_a.get(variant, "(absent)")
            new = hashes_b.get(variant, "(absent)")
            if old != new:
                diff.schedule_changes.append((f"{name}/{variant}", old, new))

    kernels_a, kernels_b = _kernel_map(record_a), _kernel_map(record_b)
    for name in sorted(set(kernels_a) | set(kernels_b)):
        a, b = kernels_a.get(name, {}), kernels_b.get(name, {})
        diff.kernel_deltas.append(Delta(f"kernel {name}",
                                        a.get("time"), b.get("time")))

    passes_a = record_a.get("passes", {})
    passes_b = record_b.get("passes", {})
    for name in sorted(set(passes_a) | set(passes_b)):
        diff.pass_deltas.append(Delta(
            f"pass {name}",
            passes_a.get(name, {}).get("seconds"),
            passes_b.get(name, {}).get("seconds")))

    counters_a = record_a.get("metrics", {}).get("counters", {})
    counters_b = record_b.get("metrics", {}).get("counters", {})
    for name in sorted(set(counters_a) | set(counters_b)):
        old = float(counters_a.get(name, 0.0))
        new = float(counters_b.get(name, 0.0))
        if old != new:
            diff.counter_deltas.append((name, old, new))
    return diff

