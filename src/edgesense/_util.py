"""Small shared helpers: atomic file writes and stable JSON."""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory plus rename,
    so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_files(directory: str, files: dict[str, str]) -> None:
    """Create directory if needed and write each file name -> text into it atomically."""
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        atomic_write_text(os.path.join(directory, name), text)


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
