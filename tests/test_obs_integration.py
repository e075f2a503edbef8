"""End-to-end observability: serial-vs-parallel metric identity, merged
span timelines, and the CLI's ``--trace``/``--metrics`` export files."""

import functools
import json
import multiprocessing

import pytest

from repro.cli import main
from repro.eval import EvaluationConfig, evaluate_network, runner
from repro.pipeline import merge_contexts


def _config(**overrides):
    base = dict(limit_per_network=2, sample_blocks=2)
    base.update(overrides)
    return EvaluationConfig(**base)


@pytest.fixture(scope="module")
def warm_process():
    """Warm the process-wide memos before measuring.

    The dependence memo (``repro.deps.analysis.DEPENDENCES_MEMO``,
    ``cache.deps``), the emptiness memo
    (``repro.sets.polyhedron.EMPTINESS_MEMO``, ``cache.emptiness``), the
    Farkas block memo (``repro.schedule.farkas.FARKAS_MEMO``,
    ``cache.farkas``), the ILP memo (``repro.solver.problem.ILP_MEMO``,
    ``cache.ilp``) and the profile memo
    (``repro.gpu.profile_cache.PROFILE_MEMO``, ``sim.profile_cache``)
    persist for the life of the process: the first evaluation misses and
    pays extra solver work (LP solves, pivots) and simulations that later
    runs — and forked workers, which inherit the warm memos — skip.
    Warming once makes the serial and parallel runs below start from the
    same memo state, so their solver and memo counters match exactly."""
    evaluate_network("LSTM", _config())


@pytest.fixture
def both_workers_busy(monkeypatch):
    """Hold each pool worker at its first task until the other worker has
    one too, so a two-task ``jobs=2`` run evaluates on both worker pids."""
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)
    evaluate = runner._evaluate_index
    held = []  # per process: forked workers each start with their own copy

    @functools.wraps(evaluate)
    def first_task_waits(*args, **kwargs):
        if not held:
            held.append(True)
            barrier.wait()
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(runner, "_evaluate_index", first_task_waits)


class TestSerialParallelMetrics:
    def test_merged_metrics_identical(self, warm_process):
        serial = evaluate_network("LSTM", _config()).metrics
        parallel = evaluate_network("LSTM", _config(), jobs=2).metrics

        assert serial["counters"] == parallel["counters"]
        # Pass call counts are deterministic; wall-clock seconds are not.
        serial_calls = {n: e["calls"] for n, e in serial["passes"].items()}
        parallel_calls = {n: e["calls"] for n, e in parallel["passes"].items()}
        assert serial_calls == parallel_calls
        assert set(serial["histograms"]) == set(parallel["histograms"])
        for name, entry in serial["histograms"].items():
            other = parallel["histograms"][name]
            assert other["count"] == entry["count"], name
            if name.startswith("gpu."):
                # The GPU model is deterministic, so even the bucket
                # distributions agree bit-for-bit.
                assert other == entry, name

    def test_merged_spans_time_ordered(self, warm_process):
        result = evaluate_network("LSTM", _config(trace=True), jobs=2)
        spans = result.metrics.get("spans", [])
        assert spans
        starts = [span["start"] for span in spans]
        assert starts == sorted(starts)
        # Roots are variant compilations plus measurement kernel runs.
        names = {span["name"] for span in spans}
        assert names == {"compile", "gpu.kernel"}
        for span in spans:
            assert span["end"] >= span["start"]
            for child in span["children"]:
                assert span["start"] <= child["start"]
                assert child["end"] <= span["end"]

    def test_chrome_trace_merges_both_workers(self, warm_process,
                                              both_workers_busy):
        result = evaluate_network("LSTM", _config(trace=True), jobs=2)
        events = merge_contexts([result.metrics]).chrome_trace()["traceEvents"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        passes = [e for e in events if e["name"].startswith("pass.")]
        assert all(e["ph"] == "X" for e in passes)
        assert len({e["pid"] for e in passes}) == 2
        # Every counted schedule-cache hit is one instant event.
        hits = [e for e in events if e["name"] == "cache-hit"]
        assert all(e["ph"] == "i" for e in hits)
        assert len(hits) == result.metrics["counters"]["cache.hits"] > 0


class TestOperatorMetrics:
    def test_gpu_kernels_count_variant_and_template_launches(self):
        # BERT's first operators include multi-launch templates.
        config = _config(limit_per_network=6)
        for index in range(6):
            _, result, metrics = runner._evaluate_index("BERT", config, index)
            assert "template" in result.launches
            assert metrics["counters"]["gpu.kernels"] == \
                sum(result.launches.values()), result.name


class TestCliExport:
    def test_table2_chrome_trace_is_valid(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["table2", "--networks", "LSTM", "--limit", "1",
                     "--sample-blocks", "2", "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "i")
            for key in ("name", "ts", "pid", "tid"):
                assert key in event, key
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        names = {e["name"] for e in events}
        assert "compile" in names
        assert any(n.startswith("pass.") for n in names)
        assert any(n.startswith("gpu.") for n in names)

    def test_table2_metrics_file(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert main(["table2", "--networks", "LSTM", "--limit", "1",
                     "--sample-blocks", "2", "--metrics", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["scheduler.ilp_solves"] > 0
        assert payload["counters"]["gpu.kernels"] > 0
        assert "passes" in payload
        summaries = payload["histogram_summaries"]
        assert "solver.solve_seconds" in summaries
        solve = summaries["solver.solve_seconds"]
        assert solve["count"] > 0
        assert 0 <= solve["p50"] <= solve["p95"] <= solve["max"]
        # The bulky spans stay out of the metrics document.
        assert "spans" not in payload

    def test_trace_flushed_when_evaluation_raises(self, tmp_path,
                                                  monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.cli.evaluate_all", boom)
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        with pytest.raises(RuntimeError):
            main(["table2", "--networks", "LSTM", "--limit", "1",
                  "--trace", str(trace), "--metrics", str(metrics)])
        # Both files exist and hold valid (if empty) JSON documents.
        assert json.loads(trace.read_text())["traceEvents"] == []
        assert json.loads(metrics.read_text())["counters"] == {}

    def test_table1_metrics_gauges(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["table1", "--metrics", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["gauges"]["table1.networks"] >= 7
        assert any(name.endswith(".total_operators")
                   for name in payload["gauges"])


class TestProfileCommand:
    def test_report_sections_and_exports(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["profile", "lstm", "--limit", "1",
                     "--sample-blocks", "2", "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        # Case-insensitive lookup resolved to the Table I name.
        assert "LSTM" in out
        assert "per-pass compile time:" in out
        assert "solver.solve_seconds" in out and "p50=" in out
        assert "per-kernel memory counters:" in out
        assert "DRAM tx" in out and "coalesce" in out
        assert "degradation summary (per network):" in out
        assert "  LSTM              1         0       0          0" in out
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["gpu.kernels"] >= 1
        assert payload["counters"]["gpu.dram_transactions"] > 0
        assert "solver.solve_seconds" in payload["histogram_summaries"]
        doc = json.loads(trace.read_text())
        assert any(e["name"] == "gpu.kernel" for e in doc["traceEvents"])

    def test_unknown_network_fails(self, capsys):
        assert main(["-q", "profile", "no-such-net"]) == 2
