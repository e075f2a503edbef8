"""Crash-safe checkpointing and ``--resume``.

The end-to-end test SIGKILLs a real ``table2`` subprocess mid-evaluation
and asserts the resumed run's report is byte-identical to an
uninterrupted one (everything before the wall-clock pass-timing section,
which legitimately varies between runs).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.eval.checkpoint import (
    CheckpointError,
    EvalCheckpoint,
    operator_from_record,
    operator_to_record,
)
from repro.eval.runner import EvaluationConfig, evaluate_all

REPORT_SPLIT = "per-pass compile time:"


def _deterministic_part(text: str) -> str:
    """Everything before the wall-clock pass-timing section."""
    return text.split(REPORT_SPLIT)[0]


def _config(**overrides) -> EvaluationConfig:
    base = dict(limit_per_network=2)
    base.update(overrides)
    return EvaluationConfig(**base)


class TestOperatorRoundtrip:
    def test_lossless_including_scheduler_stats(self):
        results = evaluate_all(_config(limit_per_network=1), ["LSTM"])
        (op,) = results["LSTM"].operators
        assert op.scheduler_stats  # the part as_record drops
        restored = operator_from_record(
            json.loads(json.dumps(operator_to_record(op))))
        assert restored == op

    def test_checkpoint_with_supervisor_fields_still_restores(self):
        # Checkpoints written while a worker supervisor existed carry
        # per-operator ``attempts``/``kill_reason`` keys.
        results = evaluate_all(_config(limit_per_network=1), ["LSTM"])
        (op,) = results["LSTM"].operators
        record = dict(operator_to_record(op), attempts=3,
                      kill_reason="hung;worker-died(exit 9)")
        assert operator_from_record(json.loads(json.dumps(record))) == op


class TestEvalCheckpoint:
    def test_restore_schedules_only_the_remainder(self):
        config = _config()
        checkpoint = EvalCheckpoint.for_eval("table2", ["LSTM"], config)
        full = evaluate_all(config, ["LSTM"], checkpoint=checkpoint)
        assert checkpoint.counters["resilience.checkpoint.appends"] == 2

        finished = []
        resumed_ckpt = EvalCheckpoint.for_eval("table2", ["LSTM"], config)
        resumed = evaluate_all(config, ["LSTM"],
                               lambda *done: finished.append(done),
                               checkpoint=resumed_ckpt, resume=True)
        # Everything restored (and reported), nothing recompiled or
        # re-appended; results identical.
        assert [index for _, index, _ in finished] == [0, 1]
        assert "resilience.checkpoint.appends" not in resumed_ckpt.counters
        assert resumed["LSTM"].operators == full["LSTM"].operators
        assert resumed_ckpt.counters[
            "resilience.checkpoint.restored"] == 2

    def test_config_change_invalidates_content_keys(self):
        config = _config()
        checkpoint = EvalCheckpoint.for_eval("table2", ["LSTM"], config)
        evaluate_all(config, ["LSTM"], checkpoint=checkpoint)

        other = _config(seed=1)
        other_ckpt = EvalCheckpoint.for_eval("table2", ["LSTM"], other)
        other_ckpt.restore_path = checkpoint.path  # force the old file
        evaluate_all(other, ["LSTM"], checkpoint=other_ckpt, resume=True)
        # Different seed -> different kernels -> no content-key matches.
        assert "resilience.checkpoint.restored" not in other_ckpt.counters
        assert other_ckpt.counters["resilience.checkpoint.appends"] == 2

    def test_torn_tail_line_skipped(self):
        config = _config()
        checkpoint = EvalCheckpoint.for_eval("table2", ["LSTM"], config)
        full = evaluate_all(config, ["LSTM"], checkpoint=checkpoint)
        with open(checkpoint.path, "a") as handle:
            handle.write('{"schema":1,"content_key":"zzz","opera')
        resumed_ckpt = EvalCheckpoint.for_eval("table2", ["LSTM"], config)
        resumed = evaluate_all(config, ["LSTM"], checkpoint=resumed_ckpt,
                               resume=True)
        assert resumed["LSTM"].operators == full["LSTM"].operators

    def test_enospc_disables_checkpoint_but_not_results(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "store.append=enospc@kind=checkpoint")
        config = _config()
        clean = evaluate_all(config, ["LSTM"])
        checkpoint = EvalCheckpoint.for_eval("table2", ["LSTM"], config)
        results = evaluate_all(config, ["LSTM"], checkpoint=checkpoint)
        assert results["LSTM"].operators == clean["LSTM"].operators
        assert not os.path.exists(checkpoint.path)
        assert checkpoint.counters[
            "resilience.checkpoint.append_errors"] == 1
        assert "resilience.checkpoint.appends" not in checkpoint.counters

    def test_unknown_and_ambiguous_refs(self, tmp_path):
        config = _config()
        checkpoint = EvalCheckpoint.for_eval("table2", ["LSTM"], config)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            checkpoint.use_ref("deadbeef")
        os.makedirs(checkpoint.root, exist_ok=True)
        for name in ("aa11.jsonl", "aa22.jsonl"):
            open(os.path.join(checkpoint.root, name), "w").close()
        with pytest.raises(CheckpointError, match="ambiguous"):
            checkpoint.use_ref("aa")
        checkpoint.use_ref("aa1")  # unique prefix resolves
        assert checkpoint.restore_path.endswith("aa11.jsonl")


class TestCliResume:
    def test_resume_report_byte_identical(self, capsys):
        args = ["--quiet", "table2", "--networks", "LSTM", "--limit", "2",
                "--no-record"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert _deterministic_part(resumed) == _deterministic_part(first)

    def test_resume_unknown_checkpoint_exits_2(self, capsys):
        assert main(["--quiet", "table2", "--networks", "LSTM",
                     "--limit", "1", "--no-record",
                     "--resume", "deadbeef"]) == 2
        capsys.readouterr()


def _repro_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _children(pid: int) -> list[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


def _alive(pid: int) -> bool:
    """Running, not a zombie nobody reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestSigkillResumeEndToEnd:
    """Kill a real `table2` run mid-evaluation; resume must complete and
    match an uninterrupted run byte for byte."""

    ARGS = ["-m", "repro", "-q", "table2", "--networks", "ResNet50",
            "--limit", "0", "--no-record"]
    # Long enough at --jobs 2 to be killed mid-way.
    JOBS2_ARGS = ["-m", "repro", "-q", "table2", "--networks", "BERT",
                  "--limit", "0", "--no-record", "--jobs", "2"]

    @staticmethod
    def _run(args, env):
        done = subprocess.run([sys.executable] + args, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    @staticmethod
    def _start_and_checkpoint(args, env, runs_dir):
        """Start a run and return it once its checkpoint holds three
        operators."""
        proc = subprocess.Popen([sys.executable] + args, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        lines = 0
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and proc.poll() is None:
                files = glob.glob(os.path.join(runs_dir, "checkpoints",
                                               "*.jsonl"))
                if files:
                    with open(files[0]) as handle:
                        lines = sum(1 for _ in handle)
                    if lines >= 3:
                        break
                time.sleep(0.01)
        finally:
            if lines < 3 and proc.poll() is None:
                proc.kill()
        assert lines >= 3, "run finished before it could be killed mid-way"
        return proc

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        env = _repro_env()
        reference = self._run(self.ARGS + ["--no-checkpoint"], env)

        runs_dir = str(tmp_path / "runs")
        env["REPRO_RUNS_DIR"] = runs_dir
        proc = self._start_and_checkpoint(self.ARGS, env, runs_dir)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

        resumed = self._run(self.ARGS + ["--resume"], env)
        assert _deterministic_part(resumed) == _deterministic_part(reference)

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task"),
                        reason="lists child processes through /proc")
    def test_sigkill_jobs2_workers_exit_and_resume_matches(self, tmp_path):
        env = _repro_env()
        reference = self._run(self.JOBS2_ARGS + ["--no-checkpoint"], env)

        runs_dir = str(tmp_path / "runs")
        env["REPRO_RUNS_DIR"] = runs_dir
        proc = self._start_and_checkpoint(self.JOBS2_ARGS, env, runs_dir)
        workers = _children(proc.pid)
        assert len(workers) == 2
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_alive, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if _alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, "workers outlived their killed parent"

        resumed = self._run(self.JOBS2_ARGS + ["--resume"], env)
        assert _deterministic_part(resumed) == _deterministic_part(reference)


class TestSigpipe:
    def test_obs_list_broken_pipe_exits_141(self):
        # stdout is a pipe whose read end is already closed: the flush
        # inside main() hits EPIPE and must map to the silent 141.
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "obs", "list"],
                env=_repro_env(), stdout=write_fd,
                stderr=subprocess.DEVNULL, timeout=60)
        finally:
            os.close(write_fd)
        assert proc.returncode == 141
