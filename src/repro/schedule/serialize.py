"""Schedule serialization: Schedule -> plain JSON-compatible dicts.

The golden snapshots and the metamorphic checks compare schedules through
this format, and the run store identifies each schedule by the content
hash of it.  The format is versioned.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.schedule.functions import Schedule

FORMAT_VERSION = 1

# Degradation rungs a serialized schedule may be tagged with (mirrors
# repro.pipeline.akg.DEGRADATION_LEVELS; duplicated to avoid an import
# cycle — the pipeline imports this module's callers).
KNOWN_DEGRADATIONS = ("none", "no-influence", "isl-baseline")


def schedule_to_dict(schedule: Schedule,
                     degradation: Optional[str] = None) -> dict:
    """A JSON-compatible representation of a schedule.

    ``degradation`` optionally tags the payload with the resilience rung
    the producing compilation took (see
    :data:`repro.pipeline.akg.DEGRADATION_LEVELS`).
    """
    if degradation is not None and degradation not in KNOWN_DEGRADATIONS:
        raise ValueError(f"unknown degradation rung {degradation!r}; "
                         f"pick from {KNOWN_DEGRADATIONS}")
    payload = {
        "version": FORMAT_VERSION,
        "params": list(schedule.params),
        "statements": {
            s.name: [
                {
                    "iter_coeffs": list(row.iter_coeffs),
                    "param_coeffs": list(row.param_coeffs),
                    "const": row.const,
                }
                for row in schedule.rows[s.name]
            ]
            for s in schedule.statements
        },
        "dims": [
            {
                "coincident": info.coincident,
                "parallel": info.parallel,
                "band": info.band,
                "vector": info.vector,
                "vector_width": info.vector_width,
                "from_influence": info.from_influence,
            }
            for info in schedule.dims
        ],
    }
    if degradation is not None:
        payload["degradation"] = degradation
    return payload


def schedule_content_hash(schedule: Schedule) -> str:
    """A short stable content hash of the schedule (row coefficients and
    dimension metadata; the degradation tag is excluded so the hash
    identifies the *schedule*, not how it was obtained).  Used by the run
    store to detect schedule changes across runs."""
    import hashlib

    canonical = json.dumps(schedule_to_dict(schedule), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

