"""Small shared helpers: atomic file writes, stable JSON, a field's JSON types."""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path atomically, as atomic_write_chunks does."""
    atomic_write_chunks(path, [text])


def atomic_write_chunks(path: str, chunks) -> None:
    """Write an iterable of strings to path, in order, via a temp file in
    the same directory plus rename, so readers never observe a partial
    file. An OSError raised on the way names path, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.filename is not None:
            # name the path the caller asked for, not the temp file's
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_files(directory: str, files: dict[str, str]) -> None:
    """Create directory if needed and write each file name -> text into it atomically."""
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        atomic_write_text(os.path.join(directory, name), text)


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_JSON_KINDS = {"bool": ({bool}, "a bool"), "int": ({int}, "an int"), "float": ({int, float}, "a number"),
               "str": ({str}, "a string")}


def json_kind(annotation: str) -> tuple[set, str]:
    """The types a JSON value of a dataclass field with this annotation may
    load as, to compare with type() (so true is no int), and their
    description. A float field takes an int too; "| None" adds null."""
    base = annotation.removesuffix(" | None")
    types, kind = _JSON_KINDS[base]
    return (types | {type(None)}, f"{kind} or null") if base != annotation else (types, kind)
