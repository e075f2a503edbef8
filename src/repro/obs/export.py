"""Atomic JSON export of the ``--trace``/``--metrics`` files.

:func:`atomic_write_json` serializes the payload into a sibling temp file
and moves it into place with ``os.replace``, so a crash mid-export can
never leave a truncated JSON file behind and concurrent readers only ever
observe complete documents.
"""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_json(path: str, payload, indent: int = 2) -> None:
    """Write ``payload`` as JSON via temp file + ``os.replace``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp",
                                    prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=indent)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
