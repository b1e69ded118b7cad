"""One JSON encoding and one CSV row writer for every artifact the toolkit writes.

Artifacts are dataclasses, mappings, sequences and arrays of plain values.
``to_plain`` turns them into JSON-ready values by walking dataclass fields
in declaration order, so a type's fields are its file format. ``write_json``
is the only JSON writer: it refuses NaN and -inf, spells +inf as ``"inf"``
(an infinite VIF is a legitimate result), and lays the file down only once
the whole payload has encoded, so a refused artifact leaves no partial file.
``write_rows`` writes every CSV table, experiment files included.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from pathlib import Path, PurePath

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


def write_rows(fh, rows: np.ndarray, fmt: str = "%.17g") -> None:
    """Write the rows of a 2-D array to ``fh`` as comma-separated lines.

    The bytes are those of ``np.savetxt(fh, rows, delimiter=",", fmt=fmt)``:
    ``fmt`` is one format for every value or one for the whole row. Instead
    of one ``%`` per row, each block of rows is formatted by one ``%`` over
    a format repeated per row; an object array keeps its values' types. A
    table of no rows writes nothing.
    """
    if len(rows) == 0:
        return
    rows = np.asarray(rows)
    line = (fmt if fmt.count("%") > 1 else ",".join([fmt] * rows.shape[1])) + "\n"
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
