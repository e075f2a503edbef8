"""Golden snapshot engine: build, round-trip, tamper detection, and the
committed-golden anchor for one Table II network."""

import json

import pytest

from repro.pipeline.akg import AkgPipeline
from repro.verify.snapshot import (
    GOLDEN_FAMILIES,
    GOLDEN_VERSION,
    GoldenConfig,
    build_family_golden,
    build_network_golden,
    compare_goldens,
    golden_path,
    load_golden,
    write_golden,
)

TINY = GoldenConfig(limit=1, sample_blocks=1)


@pytest.fixture(scope="module")
def lstm_golden():
    return build_network_golden("LSTM", TINY)


class TestBuild:
    def test_document_shape(self, lstm_golden):
        assert lstm_golden["version"] == GOLDEN_VERSION
        assert lstm_golden["network"] == "LSTM"
        assert lstm_golden["config"] == TINY.as_dict()
        assert lstm_golden["operators"]
        for entry in lstm_golden["operators"].values():
            assert set(entry["variants"]) == {"isl", "infl"}
            for snapshot in entry["variants"].values():
                assert snapshot["launches"]
                for launch in snapshot["launches"]:
                    assert launch["schedule"]["statements"]
                    assert launch["ast"]
                    assert launch["profile"]["flops"] > 0

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="unknown network"):
            build_network_golden("AlexNet", TINY)

    def test_build_is_deterministic(self, lstm_golden):
        again = build_network_golden("LSTM", TINY)
        assert compare_goldens(lstm_golden, again) == []


class TestFileRoundTrip:
    def test_write_then_load(self, lstm_golden, tmp_path):
        path = write_golden(lstm_golden, str(tmp_path))
        assert path == golden_path("LSTM", str(tmp_path))
        loaded = load_golden("LSTM", str(tmp_path))
        assert loaded == json.loads(json.dumps(lstm_golden))

    def test_missing_golden_loads_as_none(self, tmp_path):
        assert load_golden("LSTM", str(tmp_path)) is None

    def test_unsupported_version_rejected(self, lstm_golden, tmp_path):
        doc = dict(lstm_golden, version=GOLDEN_VERSION + 1)
        path = golden_path("LSTM", str(tmp_path))
        with open(path, "w") as handle:
            json.dump(doc, handle)
        with pytest.raises(ValueError, match="version"):
            load_golden("LSTM", str(tmp_path))


class TestCompare:
    def test_tampered_counter_detected(self, lstm_golden):
        tampered = json.loads(json.dumps(lstm_golden))
        entry = next(iter(tampered["operators"].values()))
        launch = entry["variants"]["infl"]["launches"][0]
        launch["profile"]["flops"] += 1
        problems = compare_goldens(lstm_golden, tampered)
        assert problems
        assert any("profile.flops" in p for p in problems)

    def test_tampered_schedule_detected(self, lstm_golden):
        tampered = json.loads(json.dumps(lstm_golden))
        entry = next(iter(tampered["operators"].values()))
        launch = entry["variants"]["infl"]["launches"][0]
        name = next(iter(launch["schedule"]["statements"]))
        launch["schedule"]["statements"][name][0]["const"] = 99
        problems = compare_goldens(lstm_golden, tampered)
        assert any("schedule" in p and "const" in p for p in problems)

    def test_config_drift_short_circuits(self, lstm_golden):
        drifted = json.loads(json.dumps(lstm_golden))
        drifted["config"]["seed"] = 5
        problems = compare_goldens(lstm_golden, drifted)
        assert problems == ["config.seed: 0 -> 5"]

    def test_version_mismatch_short_circuits(self, lstm_golden):
        other = dict(lstm_golden, version=GOLDEN_VERSION + 1)
        problems = compare_goldens(lstm_golden, other)
        assert len(problems) == 1
        assert "version" in problems[0]


class TestCommittedGoldens:
    """The anchor: the checked-in golden for one network must match a fresh
    build under the default configuration (full check is `repro verify`).

    The subclasses below re-run the same checks under each control arm, so
    the solver's reuse paths and the simulator's fast path are shown not to
    change a committed byte."""

    def test_lstm_matches_committed(self):
        expected = load_golden("LSTM")
        assert expected is not None, \
            "tests/goldens/LSTM.json missing; run `repro verify " \
            "--update-goldens`"
        actual = build_network_golden(
            "LSTM", GoldenConfig(**expected["config"]))
        assert compare_goldens(expected, actual) == []

    @pytest.mark.parametrize("family", GOLDEN_FAMILIES)
    def test_family_matches_committed(self, family):
        expected = load_golden(f"family_{family}")
        assert expected is not None, \
            f"tests/goldens/family_{family}.json missing; run " \
            "`repro verify --update-goldens`"
        actual = build_family_golden(
            family, GoldenConfig(**expected["config"]))
        assert compare_goldens(expected, actual) == []
        entry = next(iter(actual["operators"].values()))
        assert entry["template"]["launches"], \
            "family golden must pin the template baseline"


@pytest.mark.usefixtures("reference_simulator")
class TestCommittedGoldensReferenceSimulator(TestCommittedGoldens):
    """Every launch simulated on the reference interpreter."""
