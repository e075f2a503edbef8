"""``repro.obs`` — the unified tracing + metrics subsystem.

* :mod:`repro.obs.trace` — hierarchical spans, Chrome trace-event export
  (the one trace format ``--trace`` writes);
* :mod:`repro.obs.metrics` — counters and fixed-bucket histograms
  (per-pass timings are the ``pass.<name>.seconds`` histograms);
* :mod:`repro.obs.runtime` — the ambient :class:`Obs` handle instrumented
  code records into;
* :mod:`repro.obs.logutil` — the package-level ``repro`` logger.

* :mod:`repro.obs.store` — the persistent, content-addressed run store
  every CLI invocation records into;
* :mod:`repro.obs.provenance` — the scheduler decision journal behind
  ``repro explain``;
* :mod:`repro.obs.analyze` — cross-run diff of stored runs;
* :mod:`repro.obs.export` — atomic JSON export of the trace and metrics files.

Metric naming scheme (dotted, lowercase): ``scheduler.*`` for Algorithm 1
activity, ``solver.*`` for simplex/ILP internals, ``cache.*`` for the
schedule cache, ``gpu.*`` for the simulator, ``pass.*`` for pipeline
stages.
"""

from repro.obs.export import atomic_write_json
from repro.obs.logutil import configure_logging, logger
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    RATIO_BUCKETS,
    Histogram,
    MetricsRegistry,
    format_metrics_report,
)
from repro.obs.provenance import (
    NULL_JOURNAL,
    ProvenanceJournal,
    get_journal,
    use_journal,
)
from repro.obs.runtime import NULL_OBS, Obs, get_obs, use_obs
from repro.obs.store import RUN_SCHEMA_VERSION, RunStore, RunStoreError
from repro.obs.trace import Span, Tracer

__all__ = [
    "LATENCY_BUCKETS",
    "NULL_JOURNAL",
    "RATIO_BUCKETS",
    "RUN_SCHEMA_VERSION",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "Obs",
    "ProvenanceJournal",
    "RunStore",
    "RunStoreError",
    "Span",
    "Tracer",
    "atomic_write_json",
    "configure_logging",
    "format_metrics_report",
    "get_journal",
    "get_obs",
    "logger",
    "use_journal",
    "use_obs",
]
