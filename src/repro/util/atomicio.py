"""The atomic file write behind the live-telemetry surfaces.

A heartbeat file that external monitors poll (``status.json``,
``metrics.prom``) must never be observable half-written: a reader that
races the writer should see either the previous complete document or
the new one, nothing in between.  POSIX gives exactly that guarantee
for ``rename(2)`` within one filesystem, so :func:`atomic_write_text`
writes to a sibling temporary file and ``os.replace``-s it into place.
"""

from __future__ import annotations

import os
import pathlib


def atomic_write_text(path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` so readers never see a torn file.

    The text lands in ``<path>.tmp.<pid>`` first and is renamed over
    the destination, so a concurrent reader observes either the old
    complete content or the new one.  Parent directories are created
    on demand; the temporary file is removed if the rename fails.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
    tmp.write_text(text)
    try:
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - same-directory rename rarely fails
        try:
            tmp.unlink()
        finally:
            raise
    return path

