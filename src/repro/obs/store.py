"""Persistent, content-addressed, append-only run store.

Every ``compile``/``table2``/``profile`` invocation records one *run
record* — kernel and solver configuration, per-pass timings, the full
metrics snapshot, per-operator times/status/degradation rung and schedule
hashes — into ``.repro/runs/runs.jsonl`` (override with ``REPRO_RUNS_DIR``
or an explicit store root).  ``repro report``, ``repro obs`` and
``repro explain --run`` read it back through :meth:`RunStore.records`
and :meth:`RunStore.resolve`.

Durability and concurrency model:

* **Append-only JSONL.**  One record per line, written with a *single*
  ``os.write`` on an ``O_APPEND`` descriptor: POSIX serializes the
  offset-update-plus-write, so two processes appending concurrently (two
  ``--jobs`` evaluations sharing a store) produce two intact lines, never
  an interleaving.  Nothing is ever rewritten in place, and an append
  reads nothing of what is already stored, so its cost does not grow
  with the store.
* **Content-addressed ids.**  ``run_id`` is a SHA-256 prefix over the
  record's canonical JSON, which includes ``started_at``/``pid``, so two
  observations of the same configuration are distinct records.
* **Torn tails are skipped.**  A writer that crashed mid-line leaves a
  line that does not parse; readers skip it.

Records are schema-versioned (:data:`RUN_SCHEMA_VERSION`); readers reject
majors they do not understand instead of misinterpreting them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Optional

RUN_SCHEMA_VERSION = 1

DEFAULT_RUNS_DIR = os.path.join(".repro", "runs")
ENV_RUNS_DIR = "REPRO_RUNS_DIR"

RECORDS_FILE = "runs.jsonl"


def content_hash(payload) -> str:
    """SHA-256 prefix over the canonical JSON rendering of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def default_store_root() -> str:
    """The ambient store root: ``$REPRO_RUNS_DIR`` or ``.repro/runs``."""
    return os.environ.get(ENV_RUNS_DIR, "") or DEFAULT_RUNS_DIR


class RunStoreError(ValueError):
    """A run record or run reference could not be used."""


class RunStore:
    """One on-disk run store (see the module docstring for the layout)."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_store_root()
        self.records_path = os.path.join(self.root, RECORDS_FILE)

    # -- writing -------------------------------------------------------------

    def append(self, record: dict) -> str:
        """Append one record; returns its (content-addressed) ``run_id``.

        The record is stamped with ``schema`` and ``run_id`` fields and
        written without reading the store.
        """
        record = dict(record)
        record.setdefault("schema", RUN_SCHEMA_VERSION)
        record.pop("run_id", None)
        run_id = content_hash(record)
        record["run_id"] = run_id
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        # Fault-injection site: chaos plans can fail durable appends with
        # ENOSPC (nothing written) or a short write (a torn tail line the
        # readers must skip).
        from repro.faultinject import fault_action
        action = fault_action("store.append", kind="run",
                              path=os.path.basename(self.records_path),
                              key=run_id)
        if action == "enospc":
            import errno
            raise OSError(errno.ENOSPC, "injected ENOSPC (fault plan)")
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(self.records_path,
                     os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            data = line.encode()
            if action == "short-write":
                import errno
                os.write(fd, data[:max(1, len(data) // 2)])
                raise OSError(errno.EIO, "injected short write (fault plan)")
            # One write call: O_APPEND makes the offset update + write
            # atomic, so concurrent appenders cannot interleave lines.
            os.write(fd, data)
        finally:
            os.close(fd)
        return run_id

    # -- reading -------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every intact record, in append order."""
        out = []
        try:
            handle = open(self.records_path, "rb")
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
                    continue
                if self._schema_ok(record):
                    out.append(record)
        return out

    @staticmethod
    def _schema_ok(record: dict) -> bool:
        return record.get("schema", 0) <= RUN_SCHEMA_VERSION

    def resolve(self, ref: str) -> dict:
        """A record by reference: exact id, unique id prefix, or
        ``latest``/``latest~N`` (N appends back)."""
        if ref.startswith("latest"):
            back = 0
            if ref != "latest":
                if not ref.startswith("latest~"):
                    raise RunStoreError(f"bad run reference {ref!r}")
                back = int(ref[len("latest~"):])
            records = self.records()
            if back >= len(records):
                raise RunStoreError(
                    f"store {self.root} has only {len(records)} run(s); "
                    f"cannot resolve {ref!r}")
            return records[-1 - back]
        matches = [record for record in self.records()
                   if record.get("run_id", "").startswith(ref)]
        if not matches:
            raise RunStoreError(f"run {ref!r} not found in {self.root}")
        exact = [r for r in matches if r.get("run_id") == ref]
        if exact:
            return exact[0]
        distinct = {r["run_id"] for r in matches}
        if len(distinct) > 1:
            raise RunStoreError(f"run prefix {ref!r} is ambiguous: "
                                f"{sorted(distinct)}")
        return matches[0]


# -- record assembly ---------------------------------------------------------


def new_record(command: str, config: Optional[dict] = None,
               status: str = "ok") -> dict:
    """A run-record skeleton; callers fill the payload sections and append.

    ``started_at``/``pid`` make otherwise-identical runs distinct records
    (the id stays a pure function of the record content).
    """
    return {
        "schema": RUN_SCHEMA_VERSION,
        "command": command,
        "started_at": time.time(),
        "pid": os.getpid(),
        "status": status,
        "config": dict(config or {}),
    }


def finalize_record(record: dict, metrics: Optional[dict] = None,
                    wall_seconds: Optional[float] = None) -> dict:
    """Attach the metrics snapshot (full: counters/histograms plus
    per-pass timings) and wall time to a record under construction."""
    if wall_seconds is not None:
        record["wall_seconds"] = wall_seconds
    if metrics:
        record["passes"] = metrics.get("passes", {})
        record["metrics"] = {
            "counters": metrics.get("counters", {}),
            "histograms": metrics.get("histograms", {}),
        }
    return record
