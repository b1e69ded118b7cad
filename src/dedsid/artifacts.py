"""One JSON codec and one CSV row writer for every file the toolkit writes.

Artifacts are dataclasses, mappings, sequences and arrays of plain values.
``to_plain`` turns them into JSON-ready values by walking dataclass fields
in declaration order, so a type's fields are its file format, and
``from_plain`` reads such values back into the declared types, checking
each one: the config, the manifest, the schema, ``model.json`` and the
reports a later stage reuses are all read through it. ``write_json`` is the
only JSON writer: it refuses NaN and -inf, spells +inf as ``"inf"`` (an
infinite VIF is a legitimate result), and lays the file down only once the
whole payload has encoded, so a refused artifact leaves no partial file.
``write_rows`` writes every CSV table, each a float matrix in one format:
the experiment files, the bounded predictions and the spectrograms. Every
other result is JSON only, so no file repeats another.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path, PurePath
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import CorruptFile, NonFiniteArtifact, StaleArtifact

# Rows per format call of write_rows: a block of 16 columns formats into
# about 1.5 MB of text.
_CSV_BLOCK_ROWS = 4096


def to_plain(obj):
    """JSON-ready copy of ``obj``: dataclasses become objects keyed by field
    name, tuples and arrays become lists, paths become strings and +inf
    becomes ``"inf"``; other values pass through unchanged."""
    if is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Mapping):
        return {key: to_plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return to_plain(obj.tolist())
    if isinstance(obj, PurePath):
        return str(obj)
    if isinstance(obj, float) and obj == math.inf:
        return "inf"
    return obj


# A dataclass's field annotations, evaluated once per type and process.
_field_types = cache(get_type_hints)

_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string", Path: "a path"}


def from_plain(tp, value, base: Path = Path(), key: str = "", label: str = ""):
    """``value``, as ``json.load`` returns it, read as the type ``tp``: the
    inverse of ``to_plain`` for dataclasses, ``tuple[X, ...]``,
    ``Mapping[str, X]``, ``np.ndarray`` (nested lists of numbers, read as
    float64), ``X | None``, ``bool``, ``int``, finite ``float``, ``str`` and
    ``Path`` (resolved against ``base``).

    A dataclass is an object of its fields: a missing key takes the field
    default, an unknown key is refused, and a field whose metadata sets
    ``from_plain`` false is never read. A value of the wrong JSON type is a
    ``ValueError`` naming ``key``, its path from the top, with ``label``
    before each "key" or "section" of the message.
    """
    origin = get_origin(tp)
    if origin is UnionType:  # ``X | None``, the only union used
        return None if value is None else from_plain(get_args(tp)[0], value, base, key, label)
    if origin is tuple or tp is np.ndarray:
        if not isinstance(value, list):
            raise ValueError(f"{label}key {key!r} must be a list, got {value!r}")
        if origin is tuple:
            item = get_args(tp)[0]
            return tuple(
                from_plain(item, v, base, f"{key}[{i}]", label) for i, v in enumerate(value)
            )
        cells = np.array(value, dtype=object)  # a ragged nest leaves lists among the cells
        floats = [from_plain(float, v, key=key, label=label) for v in cells.flat]
        return np.array(floats, dtype=float).reshape(cells.shape)
    if origin is Mapping or is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{label}section {key!r} must be a JSON object")
        prefix = f"{key}." if key else ""
        if origin is Mapping:
            item = get_args(tp)[1]
            return {k: from_plain(item, v, base, prefix + k, label) for k, v in value.items()}
        keys = [f for f in fields(tp) if f.metadata.get("from_plain", True)]
        unknown = sorted(set(value) - {f.name for f in keys})
        if unknown:
            raise ValueError(f"unknown {label}key {prefix + unknown[0]!r}")
        hints, values = _field_types(tp), {}
        for f in keys:
            if f.name in value:
                name = prefix + f.name
                values[f.name] = from_plain(hints[f.name], value[f.name], base, name, label)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{label}missing required key {prefix + f.name!r}")
        return tp(**values)
    if tp is float:  # an int too large for a float fails the conversion below
        ok = isinstance(value, int) and not isinstance(value, bool)
        ok = ok or isinstance(value, float) and math.isfinite(value)
    elif tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, str if tp is Path else tp)
    if not ok:
        raise ValueError(f"{label}key {key!r} must be {_KINDS[tp]}, got {value!r}")
    try:
        if tp is Path:
            return (base / value).resolve()
        return float(value) if tp is float else value
    except (OSError, OverflowError, ValueError) as exc:  # NUL in a path, int beyond float
        raise ValueError(f"{label}key {key!r} cannot be used: {exc}") from None


def write_json(path: str | Path, obj, provenance: dict | None = None) -> None:
    """Write ``obj`` as indented JSON with a trailing newline.

    With a ``provenance`` record (the run's config hash, seed and input
    digests) the object gains it as a leading ``provenance`` block.
    """
    payload = to_plain(obj)
    if provenance is not None:
        payload = {"provenance": provenance, **payload}
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteArtifact(str(path)) from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def write_rows(fh, rows: np.ndarray) -> None:
    """Write the rows of a 2-D float array to ``fh`` as comma-separated lines.

    The bytes are those of ``np.savetxt(fh, rows, delimiter=",", fmt="%.17g")``,
    which round-trips every float64. Instead of one ``%`` per row, each block
    of rows is formatted by one ``%`` over the row's format repeated per row.
    A table of no rows writes nothing.
    """
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        part = rows[start : start + _CSV_BLOCK_ROWS]
        fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def read_json_object(path: str | Path, provenance: dict | None = None) -> dict:
    """The JSON object stored at ``path``; any failure is ``CorruptFile``.

    With a ``provenance`` record the object must also carry it, as
    ``write_json`` lays it down.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CorruptFile(str(path), str(exc)) from None
    if not isinstance(payload, dict):
        raise CorruptFile(str(path), "not a JSON object")
    if provenance is not None:
        check_provenance(payload, path, provenance)
    return payload


def check_provenance(payload: dict, path: str | Path, provenance: dict) -> None:
    """``StaleArtifact`` unless ``payload`` carries ``provenance``.

    When both records digest their inputs, the message names the inputs
    whose digests differ.
    """
    found = payload.get("provenance")
    if found == provenance:
        return
    old = found.get("inputs") if isinstance(found, dict) else None
    new = provenance.get("inputs")
    if isinstance(old, dict) and isinstance(new, dict) and old != new:
        differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        raise StaleArtifact(str(path), f"was built from other inputs ({', '.join(differ)} differ)")
    raise StaleArtifact(str(path))
