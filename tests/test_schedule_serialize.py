"""Tests for the degradation tag of serialized schedules."""

import pytest

from repro.influence import build_influence_tree
from repro.ir.examples import running_example
from repro.schedule import InfluencedScheduler
from repro.schedule.serialize import KNOWN_DEGRADATIONS, schedule_to_dict


@pytest.fixture(scope="module")
def kernel():
    return running_example(8)


@pytest.fixture(scope="module")
def schedule(kernel):
    scheduler = InfluencedScheduler(kernel)
    return scheduler.schedule(build_influence_tree(kernel))


class TestDegradationMetadata:
    def test_untagged_payload_reads_as_none(self, schedule):
        payload = schedule_to_dict(schedule)
        assert "degradation" not in payload

    @pytest.mark.parametrize("rung", KNOWN_DEGRADATIONS)
    def test_tag_round_trips(self, schedule, rung):
        payload = schedule_to_dict(schedule, degradation=rung)
        assert payload["degradation"] == rung
        # The tag sits beside the schedule: the untagged fields are equal.
        del payload["degradation"]
        assert payload == schedule_to_dict(schedule)

    def test_unknown_rung_rejected_on_write(self, schedule):
        with pytest.raises(ValueError, match="degradation"):
            schedule_to_dict(schedule, degradation="half-broken")
