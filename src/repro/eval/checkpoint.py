"""Crash-safe incremental evaluation checkpoints.

A ``table2`` run appends one *partial record* per
completed operator to ``<runs-dir>/checkpoints/<eval_key>.jsonl``.  The
file follows the run store's durability discipline (:mod:`repro.obs.store`):
append-only JSONL, one whole line per ``os.write`` on an ``O_APPEND``
descriptor, schema-versioned records, torn tail lines (a writer killed
mid-append) silently skipped by readers.  Killing the parent at any
instant therefore loses at most the operator in flight.

Addressing is by content, not by position:

* ``eval_key`` (the file name) hashes the command, network list and the
  *result-affecting* configuration — seed, limits, sampling, arch,
  weights, deadline.  Execution knobs (jobs, tracing) are deliberately
  excluded: they cannot change results, so a run resumed with different
  parallelism still matches.
* Each record carries a per-operator ``content_key`` hashing the
  kernel's canonical IR signature (plus its generated name) together
  with the configuration hash.  ``--resume`` reloads completed
  operators by that key and schedules only the remainder; because the
  compilation model is deterministic and each record stores the full
  operator result plus its metric snapshot, a resumed run merges to a
  report bitwise-identical to an uninterrupted one.

Checkpointing is best-effort by design: an append failure (ENOSPC, the
``store.append`` fault site) is logged and counted, the checkpoint
disables itself so a torn half-line can never be glued to a later
record, and the evaluation carries on — a broken disk costs resumability,
never results.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import asdict
from typing import Optional

from repro.faultinject import fault_action
from repro.ir.signature import kernel_signature
from repro.obs.logutil import logger
from repro.obs.store import content_hash, default_store_root
from repro.schedule.scheduler import SchedulerStats

CHECKPOINT_SCHEMA_VERSION = 1
CHECKPOINT_DIR = "checkpoints"


class CheckpointError(ValueError):
    """A checkpoint reference could not be resolved."""


def evaluation_scope(config) -> dict:
    """The result-affecting slice of an :class:`EvaluationConfig`.

    Everything that can change an ``OperatorResult`` is in; everything
    that only changes *how* the run executes (jobs, tracing,
    checkpointing itself) is out.
    """
    return {
        "seed": config.seed,
        "limit": config.limit_per_network,
        "sample_blocks": config.sample_blocks,
        "max_threads": config.max_threads,
        "arch": asdict(config.arch),
        "weights": asdict(config.weights),
        "deadline_ms": config.deadline_ms,
        "verify": config.verify,
        "templates": config.templates,
    }


def _kernel_content_hash(kernel) -> str:
    """SHA-256 prefix over the kernel's canonical IR signature + name.

    The IR signature deliberately excludes the kernel name (caches must
    share content-equal kernels); the checkpoint deliberately includes
    it, so two content-identical operators in one run restore under
    their own names.
    """
    text = f"{kernel.name}|{kernel_signature(kernel)!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- operator (de)serialization ----------------------------------------------


def operator_to_record(result) -> dict:
    """A JSON-safe rendering of an ``OperatorResult`` that restores
    losslessly (unlike ``as_record``, scheduler stats are kept)."""
    record = result.as_record()
    record["scheduler_stats"] = {
        variant: [asdict(s) for s in stats]
        for variant, stats in result.scheduler_stats.items()}
    return record


def operator_from_record(record: dict):
    """Rebuild an ``OperatorResult`` from :func:`operator_to_record`.

    Keys it does not know (the ``attempts``/``kill_reason`` of older
    checkpoints) are ignored, so those checkpoints still resume."""
    from repro.eval.runner import OperatorResult
    stats = {variant: [SchedulerStats(**entry) for entry in entries]
             for variant, entries in record.get("scheduler_stats",
                                                {}).items()}
    return OperatorResult(
        name=record["name"],
        op_class=record["op_class"],
        times=dict(record.get("times", {})),
        influenced=record.get("influenced", False),
        vectorized=record.get("vectorized", False),
        launches=dict(record.get("launches", {})),
        scheduler_stats=stats,
        status=record.get("status", "ok"),
        degradation=dict(record.get("degradation", {})),
        error=record.get("error", ""),
        verify_problems=list(record.get("verify_problems", ())),
        schedule_hashes=dict(record.get("schedule_hashes", {})),
        fallbacks=record.get("fallbacks", 0),
    )


# -- the checkpoint ----------------------------------------------------------


class EvalCheckpoint:
    """One run's incremental checkpoint file (see the module docstring)."""

    def __init__(self, command: str, networks: list[str], scope: dict,
                 root: Optional[str] = None):
        self.command = command
        self.config_key = content_hash(scope)
        self.eval_key = content_hash({
            "command": command, "networks": list(networks),
            "config": self.config_key})
        self.root = os.path.join(root or default_store_root(),
                                 CHECKPOINT_DIR)
        self.path = os.path.join(self.root, f"{self.eval_key}.jsonl")
        self.restore_path = self.path
        self.counters: dict[str, float] = {}
        self._broken = False

    @classmethod
    def for_eval(cls, command: str, networks: list[str], config,
                 root: Optional[str] = None) -> "EvalCheckpoint":
        """The checkpoint for a ``table2``-style evaluation config."""
        return cls(command, networks, evaluation_scope(config), root=root)

    def use_ref(self, ref: str) -> None:
        """Restore from an explicit checkpoint id (unique prefix) instead
        of the configuration-derived file; appends still go to the
        derived file, so a foreign checkpoint is never polluted."""
        if ref in ("", "auto"):
            return
        matches = sorted(glob.glob(os.path.join(self.root,
                                                f"{ref}*.jsonl")))
        if not matches:
            raise CheckpointError(
                f"no checkpoint matching {ref!r} under {self.root}")
        if len(matches) > 1:
            names = [os.path.basename(m) for m in matches]
            raise CheckpointError(
                f"checkpoint prefix {ref!r} is ambiguous: {names}")
        self.restore_path = matches[0]

    def _count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def operator_key(self, kernel) -> str:
        return content_hash({"config": self.config_key,
                             "kernel": _kernel_content_hash(kernel)})

    # -- writing -------------------------------------------------------------

    def record(self, network: str, index: int, kernel,
               payload: dict) -> None:
        """Append one completed-operator record (best-effort)."""
        if self._broken:
            return
        record = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "eval_key": self.eval_key,
            "network": network,
            "index": index,
            "content_key": self.operator_key(kernel),
        }
        record.update(payload)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            self._append_line(line, key=record["content_key"])
        except OSError as exc:
            # Disable rather than keep appending: a short write followed
            # by another append would glue two records into one torn
            # line and lose both.
            self._broken = True
            self._count("resilience.checkpoint.append_errors")
            logger.warning("checkpoint append failed (%s); further "
                           "checkpointing disabled for this run", exc)
            return
        self._count("resilience.checkpoint.appends")

    def _append_line(self, line: str, key: str) -> None:
        action = fault_action("store.append", kind="checkpoint",
                              path=os.path.basename(self.path), key=key)
        if action == "enospc":
            import errno
            raise OSError(errno.ENOSPC, "injected ENOSPC (fault plan)")
        os.makedirs(self.root, exist_ok=True)
        data = line.encode()
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                     0o644)
        try:
            if action == "short-write":
                import errno
                os.write(fd, data[:max(1, len(data) // 2)])
                raise OSError(errno.EIO, "injected short write "
                              "(fault plan)")
            # One write on O_APPEND: concurrent appenders (two workers'
            # parents sharing a store) emit whole lines, never torn ones.
            os.write(fd, data)
        finally:
            os.close(fd)

    def record_operator(self, network: str, index: int, kernel,
                        result, metrics: dict) -> None:
        """Checkpoint one completed ``OperatorResult`` + metric snapshot."""
        self.record(network, index, kernel, {
            "operator": operator_to_record(result),
            "metrics": metrics})

    # -- reading -------------------------------------------------------------

    def stored_records(self) -> dict[str, dict]:
        """``content_key -> record`` for every intact stored line (later
        appends win; torn tails and future schema majors are skipped)."""
        out: dict[str, dict] = {}
        try:
            handle = open(self.restore_path, "rb")
        except OSError:
            return out
        with handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn line from a killed writer
                if record.get("schema", 0) > CHECKPOINT_SCHEMA_VERSION:
                    continue
                key = record.get("content_key", "")
                if key:
                    out[key] = record
        return out

    def restore_operators(self, kernels: dict) -> dict:
        """Match stored records against ``{(network, index): kernel}``.

        Returns ``{(network, index): (OperatorResult, metrics dict)}``
        for every task whose content key has a completed record.
        """
        stored = self.stored_records()
        restored = {}
        for (network, index), kernel in kernels.items():
            record = stored.get(self.operator_key(kernel))
            if record is None or "operator" not in record:
                continue
            restored[(network, index)] = (
                operator_from_record(record["operator"]),
                record.get("metrics") or {})
        if restored:
            self._count("resilience.checkpoint.restored", len(restored))
            logger.info("resumed %d completed operator(s) from "
                        "checkpoint %s", len(restored),
                        os.path.basename(self.restore_path))
        return restored
