"""Template baselines and the operator-class registry sync check.

The template compiler (:mod:`repro.workloads.templates`) must produce
valid, semantics-preserving, GPU-mapped launches for every operator class,
and the evaluation stack must carry its measurement as the ``template``
column end to end (runner -> table2 -> CSV -> checkpoint).
:func:`~repro.workloads.generator.validate_class_registry` must turn every
registry drift mode into an immediate error.
"""

import dataclasses

import pytest

from repro.codegen.interp import check_semantics
from repro.deps import compute_dependences
from repro.eval.checkpoint import operator_from_record, operator_to_record
from repro.eval.runner import (EvaluationConfig, evaluate_network,
                               evaluate_operator)
from repro.eval.tables import format_table2, table2_row
from repro.pipeline import AkgPipeline
from repro.schedule.analysis import verify_schedule
from repro.workloads import templates
from repro.workloads.generator import (_VERIFY_BUILDERS, OPERATOR_CLASSES,
                                       validate_class_registry)
from repro.workloads.networks import NETWORKS, NetworkSpec
from repro.workloads.operators import (attention_block_op, depthwise_conv_op,
                                       softmax_like_op)
from repro.workloads.templates import (TEMPLATES, template_compile,
                                       template_kind, template_measure)


class TestTemplateCompile:
    @pytest.mark.parametrize("op_class", OPERATOR_CLASSES)
    def test_every_class_compiles_and_preserves_semantics(self, op_class):
        kernel = _VERIFY_BUILDERS[op_class](f"tmpl_{op_class}")
        launches = template_compile(kernel, op_class)
        # One launch per statement: templates never fuse.
        assert len(launches) == len(kernel.statements)
        for launch in launches:
            assert check_semantics(launch.kernel, launch.ast) == []
            relations = compute_dependences(launch.kernel)
            assert verify_schedule(launch.schedule, relations) == []

    def test_reduction_template_maps_parallel_loops(self):
        kernel = softmax_like_op("tmpl_softmax", rows=8, cols=8)
        for launch in template_compile(kernel, "softmax_like"):
            # Every statement of the family has at least one parallel
            # (row) loop the template must expose to the GPU mapping.
            assert launch.block or launch.grid

    def test_windowed_template_keeps_window_sequential(self):
        kernel = depthwise_conv_op("tmpl_dw", channels=2, height=4,
                                   width=4, kernel_size=2)
        launches = template_compile(kernel, "depthwise_conv")
        mapped_vars = {d.loop_var for launch in launches
                       for d in list(launch.grid) + list(launch.block)}
        # The window iterators must never be bound to blocks/threads.
        assert not {"r", "s"} & mapped_vars

    def test_measure_returns_time_and_kind(self):
        kernel = attention_block_op("tmpl_attn", seq=4, dmodel=4)
        result = template_measure(kernel, "attention_block", sample_blocks=2)
        assert result.time > 0
        assert result.kind == "reduce_inner"
        assert result.n_launches == len(kernel.statements)

    def test_every_class_has_a_kind(self):
        assert set(TEMPLATES) == set(OPERATOR_CLASSES)
        assert set(TEMPLATES.values()) <= {"injective", "reduce_inner"}
        assert template_kind("no_such_class") == "injective"


class TestTemplateColumn:
    @pytest.fixture(scope="class")
    def result(self):
        config = EvaluationConfig(limit_per_network=2, sample_blocks=2)
        return evaluate_network("LSTM", config)

    def test_operator_times_carry_template(self, result):
        for op in result.operators:
            assert "template" in op.times
            assert op.times["template"] > 0
            assert op.launches["template"] >= 1

    def test_direct_call_defaults_off(self):
        from repro.ir.examples import matmul
        pipeline = AkgPipeline(sample_blocks=2)
        op = evaluate_operator(pipeline, "mm", "matmul", matmul(8))
        assert "template" not in op.times

    def test_table2_carries_template(self, result):
        row = table2_row(result)
        assert row["all"]["template_ms"] > 0
        assert "speedup_template" in row["all"]
        assert "tmpl" in format_table2([result])

    def test_checkpoint_roundtrip_keeps_template(self, result):
        op = result.operators[0]
        restored = operator_from_record(operator_to_record(op))
        assert restored.times.get("template") == op.times["template"]
        assert restored.launches.get("template") == op.launches["template"]


class TestRegistrySync:
    def test_current_registry_is_consistent(self):
        validate_class_registry()

    def _with_network(self, monkeypatch, spec):
        networks = dict(NETWORKS)
        networks[spec.name] = spec
        monkeypatch.setattr("repro.workloads.generator.NETWORKS", networks)

    def test_unknown_class_in_mix_rejected(self, monkeypatch):
        self._with_network(monkeypatch, NetworkSpec(
            name="Broken", kind="cv", dataset="x", total_operators=1,
            mix={"no_such_class": 1}))
        with pytest.raises(ValueError, match="unknown class"):
            validate_class_registry()

    def test_orphan_class_rejected(self, monkeypatch):
        builders = dict(
            __import__("repro.workloads.generator",
                       fromlist=["_BUILDERS"])._BUILDERS)
        builders["orphan_class"] = builders["broadcast"]
        monkeypatch.setattr("repro.workloads.generator._BUILDERS", builders)
        with pytest.raises(ValueError, match="no network mix"):
            validate_class_registry()

    def test_missing_verify_builder_rejected(self, monkeypatch):
        verify_builders = dict(_VERIFY_BUILDERS)
        verify_builders.pop("broadcast")
        monkeypatch.setattr("repro.workloads.generator._VERIFY_BUILDERS",
                            verify_builders)
        with pytest.raises(ValueError, match="verify builder"):
            validate_class_registry()

    def test_missing_template_rejected(self, monkeypatch):
        trimmed = dict(TEMPLATES)
        trimmed.pop("broadcast")
        monkeypatch.setattr(templates, "TEMPLATES", trimmed)
        with pytest.raises(ValueError, match="template"):
            validate_class_registry()

    def test_every_mix_class_exists(self):
        for spec in NETWORKS.values():
            assert set(spec.mix) <= set(OPERATOR_CLASSES)

    def test_every_class_reaches_some_network(self):
        mixed = set()
        for spec in NETWORKS.values():
            mixed |= set(spec.mix)
        assert mixed == set(OPERATOR_CLASSES)

    def test_evaluation_scope_pins_templates(self):
        from repro.eval.checkpoint import evaluation_scope
        scope = evaluation_scope(EvaluationConfig())
        assert scope["templates"] is True
        changed = dataclasses.replace(EvaluationConfig(), templates=False)
        assert evaluation_scope(changed)["templates"] is False
