"""Small shared helpers: atomic file writes, stable JSON, and the JSON types and checks of a loaded record's values."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np


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
               "str": ({str}, "a string"), "list": ({list}, "a list"), "dict": ({dict}, "an object")}


def json_kind(annotation: str) -> tuple[set, str]:
    """The types a JSON value of a dataclass field with this annotation may
    load as, to compare with type() (so true is no int), and their
    description. A float field takes an int too; "| None" adds null."""
    base = annotation.removesuffix(" | None")
    types, kind = _JSON_KINDS[base]
    return (types | {type(None)}, f"{kind} or null") if base != annotation else (types, kind)


def json_place(key: str | None, subject: str | None = None, i: int | None = None) -> str:
    """How an error about a record's value names it: "{subject} {i} has
    {key}", "{subject} {i} is" for the entry itself (key None), or "{key}
    is" for a single value."""
    if not subject or i is None:
        return f"{key} is"
    return f"{subject} {i} has {key}" if key else f"{subject} {i} is"


def check_json(values: list, kind: tuple[set, str], key: str | None, subject: str | None = None,
               bounds: tuple[float, float] | None = None, at=None):
    """Return a record's JSON values if each has one of kind's types (by
    type(), so true is no int) and, with bounds, lies in that closed range as
    a float (so NaN and an int past the float range do not), then as a
    float64 array. Else raise ValueError naming the first that fails:
    "{json_place} {value!r}, which is not {kind's description}", with i its
    position, or at(position)."""
    types, what = kind
    if set(map(type, values)) <= types:
        if bounds is None:
            return values
        try:
            array = np.array(values, dtype=np.float64)
        except OverflowError:  # an int past the float range, found below
            pass
        else:
            if ((bounds[0] <= array) & (array <= bounds[1])).all():
                return array
    i = next(i for i, value in enumerate(values) if not _fits(value, types, bounds))
    raise ValueError(f"{json_place(key, subject, i if at is None else at(i))} {values[i]!r}, which is not {what}")


def _fits(value, types: set, bounds: tuple[float, float] | None) -> bool:
    """check_json's test of one value, run to find the first that fails."""
    if type(value) not in types:
        return False
    try:
        return bounds is None or bounds[0] <= float(value) <= bounds[1]
    except OverflowError:
        return False
