"""Counters and fixed-bucket histograms.

A :class:`MetricsRegistry` aggregates two metric kinds under dotted names
(``scheduler.ilp_solves``, ``solver.solve_seconds``, ``gpu.dram_transactions``):

* counters — monotonically increasing floats,
* histograms — fixed-bucket distributions with exact count/sum/min/max and
  interpolated percentile summaries (p50/p95).

Everything is JSON-serializable via :meth:`MetricsRegistry.as_dict` and
mergeable via :meth:`MetricsRegistry.merge_dict`, so per-worker registries
from a parallel evaluation fold into one report.  A registry constructed
with ``enabled=False`` turns every recording call into a cheap no-op; the
ambient default used outside compilation sessions is disabled so
un-instrumented callers pay (almost) nothing.
"""

from __future__ import annotations

from typing import Iterable, Optional

# Geometric latency buckets: 1us .. ~17s, factor 2 per bucket.  Upper bound
# of bucket i is LATENCY_BUCKETS[i]; values above the last bound land in the
# overflow bucket.
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-6 * 2 ** i for i in range(25))

# Ratio buckets for efficiency-style metrics in [0, 1].
RATIO_BUCKETS: tuple[float, ...] = tuple(i / 20 for i in range(1, 21))


class Histogram:
    """Fixed-bucket histogram with exact extrema and estimated percentiles."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Iterable[float] = LATENCY_BUCKETS):
        self.bounds = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        # One count per bound plus a final overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) by linear interpolation
        inside the bucket holding the target rank; exact at the extremes."""
        if not self.count:
            return 0.0
        if q <= 0:
            return self.vmin if self.vmin is not None else 0.0
        if q >= 1:
            return self.vmax if self.vmax is not None else 0.0
        target = q * self.count
        seen = 0.0
        for index, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if seen + n >= target:
                lower = self.bounds[index - 1] if index > 0 else \
                    min(self.vmin or 0.0, self.bounds[0])
                upper = self.bounds[index] if index < len(self.bounds) else \
                    (self.vmax if self.vmax is not None else self.bounds[-1])
                lower = max(lower, self.vmin if self.vmin is not None else lower)
                upper = min(upper, self.vmax if self.vmax is not None else upper)
                if upper < lower:
                    upper = lower
                fraction = (target - seen) / n
                return lower + (upper - lower) * fraction
            seen += n
        return self.vmax if self.vmax is not None else 0.0

    def summary(self) -> dict:
        """Headline numbers: count, mean, p50, p95, min, max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "min": self.vmin if self.vmin is not None else 0.0,
            "max": self.vmax if self.vmax is not None else 0.0,
        }

    # -- (de)serialization and merging ---------------------------------------

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    def merge_dict(self, payload: dict) -> None:
        if tuple(payload.get("bounds", ())) != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, n in enumerate(payload.get("bucket_counts", ())):
            self.bucket_counts[i] += n
        self.count += payload.get("count", 0)
        self.total += payload.get("total", 0.0)
        other_min = payload.get("min")
        other_max = payload.get("max")
        if other_min is not None and (self.vmin is None or other_min < self.vmin):
            self.vmin = other_min
        if other_max is not None and (self.vmax is None or other_max > self.vmax):
            self.vmax = other_max

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        histogram = cls(payload["bounds"])
        histogram.merge_dict(payload)
        return histogram


class MetricsRegistry:
    """Named counters and histograms for one worker or session."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float,
                bounds: Iterable[float] = LATENCY_BUCKETS) -> None:
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        histogram.observe(value)

    # -- (de)serialization and merging ---------------------------------------

    def as_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "histograms": {name: h.as_dict()
                           for name, h in self.histograms.items()},
        }

    def merge_dict(self, payload: dict) -> None:
        for name, amount in payload.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + amount
        for name, entry in payload.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                self.histograms[name] = Histogram.from_dict(entry)
            else:
                histogram.merge_dict(entry)


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def format_histogram_line(name: str, histogram: Histogram) -> str:
    """One fixed-width summary line for a histogram."""
    s = histogram.summary()
    if name.endswith("_seconds") or name.endswith(".seconds"):
        p50, p95, vmax = (_format_seconds(s[k]) for k in ("p50", "p95", "max"))
    else:
        p50, p95, vmax = (f"{s[k]:.3g}" for k in ("p50", "p95", "max"))
    return (f"  {name:<28}{s['count']:>8}  "
            f"p50={p50:<10} p95={p95:<10} max={vmax}")


def format_metrics_report(registry_or_payload) -> str:
    """Human-readable report of a registry (or its ``as_dict`` payload)."""
    if isinstance(registry_or_payload, MetricsRegistry):
        payload = registry_or_payload.as_dict()
    else:
        payload = registry_or_payload
    lines: list[str] = []
    counters = payload.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            value = counters[name]
            rendered = f"{int(value)}" if float(value).is_integer() \
                else f"{value:.4g}"
            lines.append(f"  {name:<28}{rendered:>12}")
    histograms = payload.get("histograms", {})
    if histograms:
        lines.append("histograms:" + " " * 22 + "count")
        for name in sorted(histograms):
            lines.append(format_histogram_line(
                name, Histogram.from_dict(histograms[name])))
    return "\n".join(lines) if lines else "(no metrics recorded)"
