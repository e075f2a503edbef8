"""Parallel suite evaluation must be bitwise-identical to the serial path,
and per-worker pass metrics must merge into one report."""

import json

import pytest

from repro.cli import main
from repro.eval import EvaluationConfig, evaluate_all, evaluate_network


def _config(**overrides):
    base = dict(limit_per_network=2, sample_blocks=2)
    base.update(overrides)
    return EvaluationConfig(**base)


def assert_results_identical(serial, parallel):
    assert serial.network == parallel.network
    assert len(serial.operators) == len(parallel.operators)
    for ours, theirs in zip(serial.operators, parallel.operators):
        assert ours.name == theirs.name
        assert ours.op_class == theirs.op_class
        assert ours.times == theirs.times  # bitwise float equality
        assert ours.influenced == theirs.influenced
        assert ours.vectorized == theirs.vectorized
        assert ours.launches == theirs.launches


class TestParallelEquivalence:
    def test_network_parallel_matches_serial(self):
        serial = evaluate_network("LSTM", _config())
        parallel = evaluate_network("LSTM", _config(), jobs=4)
        assert_results_identical(serial, parallel)

    def test_jobs_via_config(self):
        serial = evaluate_network("LSTM", _config())
        parallel = evaluate_network("LSTM", _config(jobs=2))
        assert_results_identical(serial, parallel)

    def test_evaluate_all_parallel_matches_serial(self):
        networks = ["LSTM", "VGG16"]
        serial = evaluate_all(_config(limit_per_network=1),
                              networks=networks)
        parallel = evaluate_all(_config(limit_per_network=1),
                                networks=networks, jobs=2)
        assert set(serial) == set(parallel) == set(networks)
        for network in networks:
            assert_results_identical(serial[network], parallel[network])

    def test_parallel_progress_reports_every_operator(self):
        seen = []
        result = evaluate_network(
            "LSTM", _config(),
            on_operator=lambda *finished: seen.append(finished), jobs=2)
        assert sorted((network, index, op.name)
                      for network, index, op in seen) == \
            [("LSTM", index, op.name)
             for index, op in enumerate(result.operators)]


class TestWorkerSuites:
    def test_workers_inherit_the_parent_suites(self, monkeypatch):
        """Workers evaluate from the suites ``evaluate_all`` built before
        the pool starts; none regenerates a network."""
        from repro.eval import runner, supervisor
        generated = []
        real_generate = runner.generate_network_suite

        def counting_generate(*args, **kwargs):
            generated.append(args)
            return real_generate(*args, **kwargs)

        def in_process(tasks, config, jobs, on_complete):
            # The worker entry point, run where the pool would fork.
            seen = len(generated)
            for network, index in tasks:
                on_complete(network, *runner._evaluate_index(
                    network, config, index))
            assert len(generated) == seen

        monkeypatch.setattr(runner, "_WORKER_SUITES", {})
        monkeypatch.setattr(runner, "generate_network_suite",
                            counting_generate)
        monkeypatch.setattr(supervisor, "run_supervised", in_process)
        results = evaluate_all(_config(limit_per_network=1),
                               networks=["LSTM", "VGG16"], jobs=2)
        assert [len(results[n].operators) for n in ("LSTM", "VGG16")] \
            == [1, 1]
        assert len(generated) == 2
        assert runner._WORKER_SUITES == {}


class TestMergedMetrics:
    def test_parallel_metrics_merged(self):
        result = evaluate_network("LSTM", _config(), jobs=2)
        passes = result.metrics["passes"]
        # 2 operators x 4 variants; every stage ran in some worker.
        for name in ("deps", "schedule", "codegen", "vectorize", "gpu-map"):
            assert passes[name]["calls"] > 0
            assert passes[name]["seconds"] >= 0.0
        counters = result.metrics["counters"]
        assert counters["scheduler.ilp_solves"] > 0
        # novec/infl share a schedule through the content cache even with
        # per-worker caches.
        assert counters["cache.hits"] > 0

    def test_serial_metrics_present(self):
        result = evaluate_network("LSTM", _config())
        assert result.metrics["passes"]["schedule"]["calls"] > 0
        assert result.metrics["counters"]["cache.hits"] > 0


class TestCli:
    def test_table2_jobs_and_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert main(["table2", "--networks", "LSTM", "--limit", "1",
                     "--sample-blocks", "2", "--jobs", "2",
                     "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "per-pass compile time:" in out
        assert "schedule cache:" in out
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert any(e["name"].startswith("pass.") and e["ph"] == "X"
                   for e in events)

    def test_table2_serial_prints_pass_summary(self, capsys):
        assert main(["table2", "--networks", "LSTM", "--limit", "1",
                     "--sample-blocks", "2"]) == 0
        assert "per-pass compile time:" in capsys.readouterr().out
