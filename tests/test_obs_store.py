"""Tests for the persistent run store (repro.obs.store)."""

import glob
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.eval import runner
from repro.eval.checkpoint import CHECKPOINT_DIR
from repro.obs.store import (
    RUN_SCHEMA_VERSION,
    RunStore,
    RunStoreError,
    content_hash,
    default_store_root,
    finalize_record,
    new_record,
)
from repro.workloads.generator import generate_network_suite

# Bound before any test patches the module attribute.
_evaluate_index = runner._evaluate_index


def _die_on_index_1(network, config, index):
    """``runner._evaluate_index`` whose worker dies on operator 1 (module
    level, so the pool can pickle it by name)."""
    if index == 1:
        os._exit(137)
    return _evaluate_index(network, config, index)


def _checkpointed(runs) -> list[tuple]:
    """``(network, index, name)`` of every operator a run under ``runs``
    checkpointed, in suite order."""
    out = []
    for path in glob.glob(os.path.join(runs, CHECKPOINT_DIR, "*.jsonl")):
        with open(path) as lines:
            out += [(r["network"], r["index"], r["operator"]["name"])
                    for r in map(json.loads, lines)]
    return sorted(out)


KERNEL_TEXT = """
kernel store_demo (M=64, N=16)
tensor A[M][N]
tensor B[M][N]
S[i: 0..M, j: 0..N]: B[i][j] = f(A[i][j])
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "op.kdl"
    path.write_text(KERNEL_TEXT)
    return str(path)


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


class TestAppendRead:
    def test_roundtrip(self, store):
        run_id = store.append({"command": "test", "payload": 1})
        record = store.resolve(run_id)
        assert record["payload"] == 1
        assert record["run_id"] == run_id
        assert record["schema"] == RUN_SCHEMA_VERSION

    def test_append_is_content_addressed(self, store):
        run_id = store.append({"command": "test", "payload": 2})
        expected = content_hash({"command": "test", "payload": 2,
                                 "schema": RUN_SCHEMA_VERSION})
        assert run_id == expected

    def test_new_records_are_distinct_observations(self, store):
        a = store.append(new_record("table2"))
        b = store.append(new_record("table2"))
        # started_at/pid are part of the content, so two observations of
        # the same configuration produce two records.
        assert a != b
        assert len(store.records()) == 2

    def test_records_in_append_order(self, store):
        ids = [store.append({"command": "test", "n": n}) for n in range(5)]
        assert [r["run_id"] for r in store.records()] == ids

    def test_future_schema_rejected(self, store):
        store.append({"command": "old", "n": 1})
        with open(store.records_path, "a") as handle:
            future = {"schema": RUN_SCHEMA_VERSION + 1, "run_id": "f" * 16}
            handle.write(json.dumps(future) + "\n")
        assert [r["command"] for r in store.records()] == ["old"]


    def test_torn_tail_line_tolerated(self, store):
        run_id = store.append({"command": "test", "n": 1})
        with open(store.records_path, "a") as handle:
            handle.write('{"schema": 1, "truncat')  # crashed writer
        assert [r["run_id"] for r in store.records()] == [run_id]
        assert store.resolve(run_id)["run_id"] == run_id

    def test_append_parses_no_stored_record(self, store, monkeypatch):
        """An append writes one line and reads nothing back, so its cost
        does not grow with the store."""
        for n in range(20):
            store.append({"command": "test", "n": n})

        def refuse(*args, **kwargs):
            raise AssertionError("append parsed a stored record")

        monkeypatch.setattr("repro.obs.store.json.loads", refuse)
        run_id = store.append({"command": "test", "n": 20})
        monkeypatch.undo()
        assert [r["n"] for r in store.records()] == list(range(21))
        assert store.resolve("latest")["run_id"] == run_id


class TestResolve:
    def test_latest_and_back(self, store):
        ids = [store.append({"command": "test", "n": n}) for n in range(3)]
        assert store.resolve("latest")["run_id"] == ids[-1]
        assert store.resolve("latest~1")["run_id"] == ids[-2]
        assert store.resolve("latest~2")["run_id"] == ids[0]

    def test_latest_too_far_back(self, store):
        store.append({"command": "test", "n": 1})
        with pytest.raises(RunStoreError, match="only 1 run"):
            store.resolve("latest~1")

    def test_unique_prefix(self, store):
        run_id = store.append({"command": "test", "n": 1})
        assert store.resolve(run_id[:6])["run_id"] == run_id

    def test_ambiguous_prefix_raises(self, store):
        ids = [store.append({"command": "test", "n": n}) for n in range(40)]
        first_chars = {i[0] for i in ids}
        if len(first_chars) == len(ids):  # pragma: no cover - improbable
            pytest.skip("no colliding first characters drawn")
        shared = next(c for c in first_chars
                      if sum(i.startswith(c) for i in ids) > 1)
        with pytest.raises(RunStoreError, match="ambiguous"):
            store.resolve(shared)

    def test_default_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "custom"))
        assert default_store_root() == str(tmp_path / "custom")


class TestRecordAssembly:
    def test_new_record_fields(self):
        record = new_record("table2", config={"seed": 3})
        assert record["command"] == "table2"
        assert record["config"] == {"seed": 3}
        assert record["status"] == "ok"
        assert record["pid"] == os.getpid()
        assert record["started_at"] > 0

    def test_finalize_attaches_metrics(self):
        record = finalize_record(
            new_record("profile"),
            metrics={"passes": {"schedule": {"seconds": 0.5}},
                     "counters": {"scheduler.ilp_solves": 4.0},
                     "histograms": {}},
            wall_seconds=1.25)
        assert record["wall_seconds"] == 1.25
        assert record["passes"]["schedule"]["seconds"] == 0.5
        assert record["metrics"]["counters"]["scheduler.ilp_solves"] == 4.0


_APPEND_SCRIPT = """
import sys
from repro.obs.store import RunStore
store = RunStore(sys.argv[1])
for n in range(25):
    store.append({"command": "parallel", "writer": sys.argv[2], "n": n,
                  "padding": "x" * 512})
"""


class TestConcurrentAppend:
    def test_parallel_writers_produce_intact_lines(self, store, tmp_path):
        """Two processes appending to one store must never interleave
        JSONL lines (single O_APPEND write per record)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        procs = [subprocess.Popen(
                    [sys.executable, "-c", _APPEND_SCRIPT,
                     store.root, writer],
                    env=env, cwd=str(tmp_path))
                 for writer in ("a", "b")]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        with open(store.records_path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 50
        parsed = [json.loads(line) for line in lines]  # intact JSON only
        by_writer = {}
        for record in parsed:
            by_writer.setdefault(record["writer"], set()).add(record["n"])
        assert by_writer == {"a": set(range(25)), "b": set(range(25))}
        # And the store reads them all back.
        assert len(store.records()) == 50


class TestRecordingUnderFaults:
    """Satellite: run records are still flushed — and marked — when the
    degradation ladder or fault injection fires."""

    def test_degraded_compile_records_degraded_run(self, kernel_file,
                                                   monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "compile=timeout@variant=infl&influence=True")
        assert main(["compile", kernel_file, "--variant", "infl"]) == 0
        record = RunStore().resolve("latest")
        assert record["status"] == "degraded"
        (operator,) = record["operators"]
        assert operator["degradation"]["infl"] == "no-influence"
        assert operator["schedule_hashes"]["infl"]

    def test_failed_compile_still_flushes_record(self, kernel_file,
                                                 monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        # Every rung of every ladder times out: compilation fails outright,
        # but the run record must still land in the store.
        monkeypatch.setenv("REPRO_FAULT_PLAN", "compile=timeout")
        assert main(["compile", kernel_file, "--variant", "infl"]) == 1
        record = RunStore().resolve("latest")
        assert record["status"] == "failed"
        assert record["metrics"]["counters"].get("resilience.fallback")

    def test_table2_chaos_worker_crash_records_run(self, monkeypatch,
                                                   tmp_path, capsys):
        # A worker that dies breaks the pool: the run fails, but its
        # record still lands in the store, marked ``error``.
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.setattr(runner, "_evaluate_index", _die_on_index_1)
        assert main(["--quiet", "table2", "--networks", "LSTM",
                     "--limit", "4", "--sample-blocks", "2",
                     "--jobs", "2"]) == 1
        capsys.readouterr()
        record = RunStore().resolve("latest")
        assert record["command"] == "table2"
        assert record["status"] == "error"
        assert multiprocessing.active_children() == []
        checkpointed = {(network, name) for network, _, name
                        in _checkpointed(tmp_path / "runs")}
        assert {(op["network"], op["name"])
                for op in record["operators"]} <= checkpointed

    def test_table2_error_records_finished_operators(self, monkeypatch,
                                                     tmp_path, capsys):
        # Operator 3 hits a bug (not a compilation error), which fails the
        # run: its record still holds operators 0-2, as the checkpoint does.
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        doomed = generate_network_suite("LSTM", seed=0, limit=4)[3][1].name
        evaluate = runner.evaluate_operator

        def evaluate_or_raise(pipeline, name, *rest, **kwargs):
            if name == doomed:
                raise RuntimeError("injected bug")
            return evaluate(pipeline, name, *rest, **kwargs)

        monkeypatch.setattr(runner, "evaluate_operator", evaluate_or_raise)
        with pytest.raises(RuntimeError, match="injected bug"):
            main(["--quiet", "table2", "--networks", "LSTM", "--limit", "4",
                  "--sample-blocks", "2"])
        capsys.readouterr()
        record = RunStore().resolve("latest")
        assert record["status"] == "error"
        checkpointed = _checkpointed(runs)
        assert [index for _, index, _ in checkpointed] == [0, 1, 2]
        assert [(op["network"], op["name"]) for op in record["operators"]] \
            == [(network, name) for network, _, name in checkpointed]
