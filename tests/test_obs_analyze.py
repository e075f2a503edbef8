"""Tests for cross-run analytics (repro.obs.analyze) and `repro obs`."""

import json

import pytest

from repro.cli import main
from repro.obs.analyze import (
    Delta,
    TrendSeries,
    build_trend,
    diff_runs,
)
from repro.obs.store import RunStore


def _run_record(run_id="aaaa", started=1.0, time_infl=1e-5,
                schedule_hash="h1", status="ok", network="LSTM"):
    return {
        "schema": 1,
        "run_id": run_id,
        "command": "table2",
        "started_at": started,
        "status": "ok",
        "config": {"networks": network},
        "operators": [{
            "name": "op0",
            "op_class": "elementwise",
            "times": {"isl": 2e-5, "infl": time_infl},
            "schedule_hashes": {"isl": "base", "infl": schedule_hash},
            "status": status,
            "launches": {"isl": 1, "infl": 1},
        }],
        "passes": {"schedule": {"seconds": 0.5}},
        "metrics": {"counters": {"scheduler.ilp_solves": 4.0},
                    "histograms": {}},
    }


class TestDelta:
    def test_insignificant_below_threshold(self):
        delta = Delta("x", 1.0, 1.02)
        assert not delta.significant(0.05)
        assert delta.significant(0.01)

    def test_appeared_and_disappeared_always_significant(self):
        assert Delta("x", None, 1.0).significant(0.5)
        assert Delta("x", 1.0, None).significant(0.5)

    def test_regressed_is_one_sided(self):
        assert Delta("x", 1.0, 1.2).regressed(0.1)
        assert not Delta("x", 1.2, 1.0).regressed(0.1)  # improvement


class TestDiffRuns:
    def test_identical_runs_report_zero_schedule_changes(self):
        diff = diff_runs(_run_record(run_id="aaaa"),
                         _run_record(run_id="bbbb", started=2.0))
        assert diff.n_schedule_changes == 0
        assert diff.significant_deltas() == []
        assert "schedule-hash changes: 0" in diff.render()

    def test_schedule_hash_change_detected(self):
        diff = diff_runs(_run_record(), _run_record(schedule_hash="h2"))
        assert diff.n_schedule_changes == 1
        (name, old, new) = diff.schedule_changes[0]
        assert name == "op0/infl"
        assert (old, new) == ("h1", "h2")
        assert "op0/infl: h1 -> h2" in diff.render()

    def test_timing_regression_beyond_threshold(self):
        diff = diff_runs(_run_record(time_infl=1e-5),
                         _run_record(time_infl=2e-5), threshold=0.05)
        regressions = diff.regressions()
        assert [d.name for d in regressions] == ["op0/infl"]
        assert "2.00x" in regressions[0].render()

    def test_noise_below_threshold_not_reported(self):
        diff = diff_runs(_run_record(time_infl=1.00e-5),
                         _run_record(time_infl=1.02e-5), threshold=0.05)
        assert diff.significant_deltas() == []
        assert diff.regressions() == []

    def test_status_transition_reported(self):
        diff = diff_runs(_run_record(), _run_record(status="degraded"))
        assert diff.status_changes

    def test_benchmark_records_diff(self):
        a = {"run_id": "a", "benchmarks": {"bench::one": 1.0}}
        b = {"run_id": "b", "benchmarks": {"bench::one": 1.5}}
        diff = diff_runs(a, b, threshold=0.1)
        assert [d.name for d in diff.regressions()] == ["bench::one"]


class TestTrend:
    def test_series_built_per_kernel_in_time_order(self):
        records = [_run_record(run_id="b", started=2.0, time_infl=2e-5),
                   _run_record(run_id="a", started=1.0, time_infl=1e-5)]
        report = build_trend(records)
        series = {s.name: s for s in report.series}
        assert series["LSTM/op0/infl"].values == [1e-5, 2e-5]

    def test_regression_flagged_vs_best_previous(self):
        records = [_run_record(run_id="a", started=1.0, time_infl=1e-5),
                   _run_record(run_id="b", started=2.0, time_infl=2e-5)]
        report = build_trend(records, threshold=0.05)
        assert [s.name for s in report.regressions()] == ["LSTM/op0/infl"]
        assert "REGRESSED" in report.render()

    def test_improvement_not_flagged(self):
        records = [_run_record(run_id="a", started=1.0, time_infl=2e-5),
                   _run_record(run_id="b", started=2.0, time_infl=1e-5)]
        assert build_trend(records, threshold=0.05).regressions() == []

    def test_match_filters_series(self):
        report = build_trend([_run_record()], match="nomatch")
        assert report.series == []

    def test_single_point_never_regresses(self):
        series = TrendSeries("x", points=[(1.0, "a", 5.0)])
        assert series.best_previous is None

    def test_empty_report_renders(self):
        assert "(no runs stored)" in build_trend([]).render()


class TestObsCli:
    """`repro obs list|show|diff|trend|bench-append` against a tmp store
    (the autouse fixture points REPRO_RUNS_DIR at tmp_path)."""

    @pytest.fixture
    def seeded_store(self):
        store = RunStore()
        a = store.append(_run_record(run_id="", started=1.0))
        b = store.append(_run_record(run_id="", started=2.0,
                                     time_infl=2e-5, schedule_hash="h2"))
        return store, a, b

    def test_obs_list(self, seeded_store, capsys):
        assert main(["obs", "list"]) == 0
        out = capsys.readouterr().out
        _, a, b = seeded_store
        assert a in out and b in out and "table2" in out

    def test_obs_list_empty(self, capsys):
        assert main(["obs", "list"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_obs_show_empty(self, capsys):
        assert main(["obs", "show", "latest"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_obs_trend_empty(self, capsys):
        assert main(["obs", "trend"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_obs_show(self, seeded_store, capsys):
        _, a, _ = seeded_store
        assert main(["obs", "show", a]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == a

    def test_obs_diff_identical_zero_changes(self, capsys):
        store = RunStore()
        a = store.append(_run_record(run_id="", started=1.0))
        b = store.append(_run_record(run_id="", started=2.0))
        assert main(["obs", "diff", a, b]) == 0
        assert "schedule-hash changes: 0" in capsys.readouterr().out

    def test_obs_diff_fail_on_regression(self, seeded_store, capsys):
        _, a, b = seeded_store
        assert main(["obs", "diff", a, b, "--fail-on-regression",
                     "--threshold", "0.10"]) == 1
        out = capsys.readouterr().out
        assert "schedule-hash changes: 1" in out
        # The improvement direction passes.
        assert main(["obs", "diff", b, a, "--fail-on-regression",
                     "--threshold", "0.10"]) == 0

    def test_obs_diff_unknown_run(self, capsys):
        assert main(["obs", "diff", "nope", "alsono"]) == 2

    def test_obs_trend(self, seeded_store, capsys):
        assert main(["obs", "trend"]) == 0
        out = capsys.readouterr().out
        assert "LSTM/op0/infl" in out and "REGRESSED" in out
        assert main(["obs", "trend", "--fail-on-regression"]) == 1

    def test_obs_bench_append_idempotent(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "datetime": "2026-08-06T08:05:24.600012+00:00",
            "benchmarks": [
                {"fullname": "bench.py::test_one",
                 "stats": {"mean": 0.25}},
            ]}))
        assert main(["obs", "bench-append", str(bench)]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["obs", "bench-append", str(bench)]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second  # byte-identical record -> dedup
        store = RunStore()
        assert len(store.records()) == 1
        record = store.read(first)
        assert record["benchmarks"]["bench.py::test_one"] == 0.25
        assert record["command"] == "bench"
