"""Tests for the evaluation harness and table formatting."""

import math

import pytest

from repro.eval import (
    EvaluationConfig,
    evaluate_network,
    format_table1,
    format_table2,
    table2_row,
)
from repro.eval.runner import NetworkResult, OperatorResult, evaluate_operator
from repro.eval.tables import geomean_speedup
from repro.pipeline import AkgPipeline
from repro.workloads import operators


def fake_op(name, isl, infl, influenced=True, vectorized=True):
    return OperatorResult(
        name=name, op_class="x",
        times={"isl": isl, "tvm": isl, "novec": infl, "infl": infl},
        influenced=influenced, vectorized=vectorized,
        launches={"isl": 2, "tvm": 2, "novec": 1, "infl": 1})


class TestAggregation:
    def test_counts(self):
        r = NetworkResult("N", [fake_op("a", 2.0, 1.0),
                                fake_op("b", 1.0, 1.0, influenced=False,
                                        vectorized=False)])
        assert r.count_total == 2
        assert r.count_vec == 1
        assert r.count_influenced == 1

    def test_total_time_filtering(self):
        r = NetworkResult("N", [fake_op("a", 2.0, 1.0),
                                fake_op("b", 4.0, 4.0, influenced=False)])
        assert r.total_time("isl") == 6.0
        assert r.total_time("isl", influenced_only=True) == 2.0

    def test_speedup(self):
        r = NetworkResult("N", [fake_op("a", 2.0, 1.0)])
        assert r.speedup("infl") == 2.0

    def test_geomean(self):
        results = [NetworkResult("A", [fake_op("a", 2.0, 1.0)]),
                   NetworkResult("B", [fake_op("b", 8.0, 1.0)])]
        assert geomean_speedup(results) == pytest.approx(4.0)

    def test_geomean_empty(self):
        assert math.isnan(geomean_speedup([]))


class TestFormatting:
    def test_table1_has_every_network(self):
        text = format_table1()
        for name in ("BERT", "LSTM", "MobileNetv2", "ResNet50",
                     "ResNet101", "ResNeXt50", "VGG16"):
            assert name in text

    def test_table2_row_dict(self):
        r = NetworkResult("N", [fake_op("a", 0.002, 0.001)])
        row = table2_row(r)
        assert row["all"]["isl_ms"] == pytest.approx(2.0)
        assert row["all"]["speedup_infl"] == pytest.approx(2.0)
        assert row["total"] == 1

    def test_table2_renders(self):
        r = NetworkResult("N", [fake_op("a", 0.002, 0.001)])
        text = format_table2([r])
        assert "TABLE II" in text
        assert "N" in text.splitlines()[-1]


class TestEndToEnd:
    def test_evaluate_operator_full(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.reduce_producer_op("e2e", rows=256, red=8)
        result = evaluate_operator(pipe, kernel.name, "reduce_producer",
                                   kernel)
        assert set(result.times) == {"isl", "tvm", "novec", "infl"}
        assert all(t > 0 for t in result.times.values())
        assert result.influenced  # fusion changes the compiled result
        assert result.launches["isl"] == 2
        assert result.launches["infl"] == 1

    def test_evaluate_network_limited(self):
        result = evaluate_network(
            "LSTM", EvaluationConfig(limit_per_network=2, sample_blocks=2))
        assert result.count_total == 2
        assert result.total_time("isl") > 0

    def test_progress_callback(self):
        seen = []
        result = evaluate_network("LSTM",
                                  EvaluationConfig(limit_per_network=1,
                                                   sample_blocks=2),
                                  on_operator=lambda *done: seen.append(done))
        assert seen == [("LSTM", 0, result.operators[0])]

    def test_stratified_limit_keeps_classes(self):
        from repro.workloads import generate_network_suite
        full_classes = {cls for cls, _ in generate_network_suite("ResNet101")}
        limited_classes = {cls for cls, _ in
                           generate_network_suite("ResNet101", limit=6)}
        # Every class present in the full suite appears in the sample
        # (there are at most 5 classes per network).
        assert full_classes == limited_classes


class TestVerifyIntegration:
    """`EvaluationConfig.verify` runs the oracle inside the evaluation loop."""

    def test_evaluate_operator_verify_clean(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.reduce_producer_op("ver_ok", rows=256, red=8)
        result = evaluate_operator(pipe, kernel.name, "reduce_producer",
                                   kernel, verify=True)
        assert result.verify_problems == []
        assert result.status == "ok"

    def test_verify_off_by_default(self):
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.reduce_producer_op("ver_off", rows=256, red=8)
        result = evaluate_operator(pipe, kernel.name, "reduce_producer",
                                   kernel)
        assert result.verify_problems == []

    def test_evaluate_network_with_verify(self):
        result = evaluate_network(
            "LSTM", EvaluationConfig(limit_per_network=1, sample_blocks=2,
                                     verify=True))
        assert all(op.verify_problems == [] for op in result.operators)
        assert all(op.status == "ok" for op in result.operators)

    def test_verify_problems_mark_failed(self, monkeypatch):
        import repro.eval.runner as runner_mod
        from repro.verify import oracle as oracle_mod
        monkeypatch.setattr(oracle_mod, "differential_oracle",
                            lambda kernel, pipeline=None: ["drift detected"])
        pipe = AkgPipeline(sample_blocks=2)
        kernel = operators.reduce_producer_op("ver_bad", rows=256, red=8)
        result = runner_mod.evaluate_operator(
            pipe, kernel.name, "reduce_producer", kernel, verify=True)
        assert result.verify_problems == ["drift detected"]
        assert result.status == "failed"
