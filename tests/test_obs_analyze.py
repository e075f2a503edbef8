"""Tests for cross-run analytics (repro.obs.analyze) and `repro obs`."""

import json

import pytest

from repro.cli import main
from repro.obs.analyze import Delta, diff_runs
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


class TestObsCli:
    """`repro obs list|show|diff` against a tmp store
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
