"""Tests for schedule serialization round trips through code generation."""

import pytest

from repro.codegen import generate_ast
from repro.codegen.ast import render_ast
from repro.ir.examples import matmul, running_example
from repro.schedule import InfluencedScheduler
from repro.schedule.serialize import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)


class TestScheduleSerialization:
    def test_roundtrip_preserves_codegen(self):
        kernel = running_example(8)
        scheduler = InfluencedScheduler(kernel)
        schedule = scheduler.schedule()
        rebuilt = schedule_from_json(kernel, schedule_to_json(schedule))
        assert render_ast(generate_ast(kernel, rebuilt)) == \
            render_ast(generate_ast(kernel, schedule))

    def test_roundtrip_preserves_metadata(self):
        kernel = matmul(4)
        schedule = InfluencedScheduler(kernel).schedule()
        rebuilt = schedule_from_dict(kernel, schedule_to_dict(schedule))
        assert [i.parallel for i in rebuilt.dims] == \
            [i.parallel for i in schedule.dims]
        assert [i.band for i in rebuilt.dims] == \
            [i.band for i in schedule.dims]

    def test_version_check(self):
        kernel = matmul(4)
        payload = schedule_to_dict(InfluencedScheduler(kernel).schedule())
        payload["version"] = 999
        with pytest.raises(ValueError):
            schedule_from_dict(kernel, payload)

    def test_statement_mismatch(self):
        a = matmul(4)
        b = running_example(4)
        payload = schedule_to_dict(InfluencedScheduler(a).schedule())
        with pytest.raises(ValueError):
            schedule_from_dict(b, payload)

    def test_param_mismatch(self):
        kernel = matmul(4)
        payload = schedule_to_dict(InfluencedScheduler(kernel).schedule())
        payload["params"] = ["Z"]
        with pytest.raises(ValueError):
            schedule_from_dict(kernel, payload)
