"""Unit tests for :mod:`repro.obs` — spans, histograms, the ambient
handle, Chrome trace-event export and the package logger."""

import logging

import pytest

from repro.obs import (
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_OBS,
    Obs,
    Span,
    Tracer,
    configure_logging,
    format_metrics_report,
    get_obs,
    use_obs,
)
from repro.obs.logutil import logger
from repro.obs.metrics import RATIO_BUCKETS, format_histogram_line


# -- histograms ---------------------------------------------------------------


class TestHistogram:
    def test_percentiles_exact_with_unit_buckets(self):
        h = Histogram(bounds=range(1, 101))
        for value in range(1, 101):
            h.observe(value)
        assert h.count == 100
        assert h.quantile(0.50) == pytest.approx(50.0)
        assert h.quantile(0.95) == pytest.approx(95.0)
        assert h.quantile(0.0) == 1
        assert h.quantile(1.0) == 100
        summary = h.summary()
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_empty_histogram_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p50"] == 0.0
        assert summary["p95"] == 0.0

    def test_overflow_bucket(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(10.0)
        assert h.bucket_counts == [0, 0, 1]
        assert h.summary()["max"] == 10.0
        # The overflow bucket interpolates toward the exact maximum.
        assert h.quantile(0.99) <= 10.0

    def test_latency_buckets_cover_realistic_solves(self):
        h = Histogram(LATENCY_BUCKETS)
        for value in (2e-6, 5e-4, 0.01, 1.5):
            h.observe(value)
        assert sum(h.bucket_counts) == 4
        assert h.bucket_counts[-1] == 0  # nothing hit overflow

    def test_merge_combines_distributions(self):
        left, right = Histogram(range(1, 101)), Histogram(range(1, 101))
        for value in range(1, 51):
            left.observe(value)
        for value in range(51, 101):
            right.observe(value)
        left.merge_dict(right.as_dict())
        whole = Histogram(range(1, 101))
        for value in range(1, 101):
            whole.observe(value)
        assert left.as_dict() == whole.as_dict()
        assert left.quantile(0.5) == pytest.approx(whole.quantile(0.5))

    def test_merge_bounds_mismatch_raises(self):
        with pytest.raises(ValueError):
            Histogram(LATENCY_BUCKETS).merge_dict(
                Histogram(RATIO_BUCKETS).as_dict())

    def test_round_trip(self):
        h = Histogram(RATIO_BUCKETS)
        for value in (0.1, 0.5, 0.93, 1.0):
            h.observe(value)
        assert Histogram.from_dict(h.as_dict()).as_dict() == h.as_dict()

    def test_format_histogram_line_uses_time_units_for_seconds(self):
        h = Histogram(LATENCY_BUCKETS)
        h.observe(0.002)
        line = format_histogram_line("solver.solve_seconds", h)
        assert "p50=" in line and "p95=" in line
        assert "ms" in line or "us" in line


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.count("solver.pivots", 3)
        registry.count("solver.pivots", 2)
        registry.observe("gpu.coalescing_efficiency", 0.5,
                         bounds=RATIO_BUCKETS)
        assert registry.counters["solver.pivots"] == 5
        assert registry.histograms["gpu.coalescing_efficiency"].count == 1

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.count("a")
        registry.observe("c", 1.0)
        assert registry.as_dict() == {"counters": {}, "histograms": {}}

    def test_merge_folds_worker_payloads(self):
        ours, theirs = MetricsRegistry(), MetricsRegistry()
        ours.count("x", 1)
        theirs.count("x", 2)
        theirs.count("y", 4)
        theirs.observe("lat", 0.25)
        ours.merge_dict(theirs.as_dict())
        assert ours.counters == {"x": 3, "y": 4}
        assert ours.histograms["lat"].count == 1

    def test_report_lists_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.count("scheduler.ilp_solves", 9)
        registry.observe("solver.solve_seconds", 0.001)
        report = format_metrics_report(registry)
        assert "scheduler.ilp_solves" in report
        assert "solver.solve_seconds" in report


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_carry_attributes(self):
        tracer = Tracer(worker=42)
        with tracer.span("compile", kernel="k") as outer:
            with tracer.span("pass.schedule") as inner:
                inner.set(dims=3)
            tracer.event("cache-hit", key="abc")
            outer.set(variant="infl")
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "compile"
        assert root.attrs == {"kernel": "k", "variant": "infl"}
        assert root.pid == 42
        assert [c.name for c in root.children] == ["pass.schedule"]
        assert root.children[0].attrs == {"dims": 3}
        assert [e["name"] for e in root.events] == ["cache-hit"]
        # Timestamps are monotone and children are contained in parents.
        child = root.children[0]
        assert root.start <= child.start <= child.end <= root.end

    def test_event_without_open_span_becomes_degenerate_root(self):
        tracer = Tracer()
        tracer.event("standalone", detail=1)
        assert len(tracer.roots) == 1
        assert tracer.roots[0].duration == 0.0

    def test_span_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", x=1):
            with tracer.span("b"):
                tracer.event("tick")
        payload = tracer.roots[0].as_dict()
        assert Span.from_dict(payload).as_dict() == payload

    def test_merge_dict_sorts_roots_by_start(self):
        early, late = Tracer(worker=1), Tracer(worker=2)
        with late.span("late"):
            pass
        with early.span("early"):
            pass
        # Shift the "early" worker's span before the other one, as if its
        # process had started first on the shared wall clock.
        early.roots[0].start -= 1000.0
        early.roots[0].end -= 1000.0
        merged = Tracer(enabled=True, worker=0)
        merged.merge_dict(late.as_dict())
        merged.merge_dict(early.as_dict())
        assert [s.name for s in merged.roots] == ["early", "late"]
        assert {s.pid for s in merged.roots} == {1, 2}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a") as span:
            span.set(ignored=True)
            tracer.event("b")
        assert tracer.roots == []
        assert tracer.as_dict() == {"worker": tracer.worker, "spans": []}


class TestChromeTrace:
    def _sample_tracer(self):
        tracer = Tracer(worker=11)
        with tracer.span("compile", kernel="k"):
            with tracer.span("pass.schedule"):
                tracer.event("scheduler.ilp-solve", dim=0)
            with tracer.span("pass.codegen"):
                pass
        return tracer

    def test_complete_events_have_required_fields(self):
        doc = self._sample_tracer().chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert len(events) == 4  # 3 spans + 1 instant
        for event in events:
            assert event["ph"] in ("X", "i")
            for key in ("name", "ph", "ts", "pid", "tid", "cat", "args"):
                assert key in event, key
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            else:
                assert event["s"] == "t"

    def test_children_nest_inside_parents(self):
        doc = self._sample_tracer().chrome_trace()
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        parent = by_name["compile"]
        for child_name in ("pass.schedule", "pass.codegen"):
            child = by_name[child_name]
            assert parent["ts"] <= child["ts"]
            assert child["ts"] + child["dur"] <= \
                parent["ts"] + parent["dur"] + 1e-6
        instant = by_name["scheduler.ilp-solve"]
        schedule = by_name["pass.schedule"]
        assert schedule["ts"] <= instant["ts"] <= \
            schedule["ts"] + schedule["dur"] + 1e-6

    def test_timestamps_relative_and_sorted(self):
        events = self._sample_tracer().chrome_trace()["traceEvents"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        assert stamps[0] == 0.0  # relative to the earliest span

    def test_category_is_name_prefix(self):
        events = self._sample_tracer().chrome_trace()["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["pass.schedule"]["cat"] == "pass"
        assert by_name["compile"]["cat"] == "compile"


# -- the ambient handle -------------------------------------------------------


class TestAmbientObs:
    def test_default_is_disabled(self):
        obs = get_obs()
        assert obs is NULL_OBS
        assert not obs.tracer.enabled
        assert not obs.metrics.enabled

    def test_use_obs_installs_and_restores(self):
        mine = Obs(Tracer(enabled=True), MetricsRegistry())
        with use_obs(mine):
            assert get_obs() is mine
            get_obs().metrics.count("x")
        assert get_obs() is NULL_OBS
        assert mine.metrics.counters == {"x": 1}

    def test_use_obs_restores_on_exception(self):
        mine = Obs()
        with pytest.raises(RuntimeError):
            with use_obs(mine):
                raise RuntimeError
        assert get_obs() is NULL_OBS

    def test_obs_shims_delegate(self):
        obs = Obs(Tracer(enabled=True, worker=1), MetricsRegistry())
        with obs.span("a") as span:
            span.set(n=1)
            obs.event("tick")
        obs.metrics.count("c", 2)
        obs.observe("h", 0.5, bounds=RATIO_BUCKETS)
        assert obs.tracer.roots[0].attrs == {"n": 1}
        assert obs.metrics.counters == {"c": 2}
        assert obs.metrics.histograms["h"].count == 1


# -- logging ------------------------------------------------------------------


class TestLogging:
    def test_verbosity_maps_to_levels(self):
        assert configure_logging(-1).level == logging.WARNING
        assert configure_logging(0).level == logging.INFO
        assert configure_logging(1).level == logging.DEBUG

    def test_reconfigure_replaces_cli_handler(self):
        configure_logging(0)
        configure_logging(0)
        named = [h for h in logger.handlers
                 if h.get_name() == "repro-cli"]
        assert len(named) == 1
