"""One JSON encoding for every artifact the toolkit writes or reads back.

Artifacts are dataclasses, mappings, sequences and arrays of plain values.
``to_plain`` turns them into JSON-ready values by walking dataclass fields
in declaration order, so a type's fields are its file format. ``write_json``
is the only writer: it refuses NaN and -inf, spells +inf as ``"inf"`` (an
infinite VIF is a legitimate result), and lays the file down only once the
whole payload has encoded, so a refused artifact leaves no partial file.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from pathlib import Path, PurePath

import numpy as np

from .errors import CorruptFile, NonFiniteArtifact


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


def write_json(path: str | Path, obj, cfg=None) -> None:
    """Write ``obj`` as indented JSON with a trailing newline.

    With a run configuration ``cfg`` the object gains a leading
    ``provenance`` block: the config hash and the effective seed.
    """
    payload = to_plain(obj)
    if cfg is not None:
        payload = {"provenance": cfg.provenance(), **payload}
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteArtifact(str(path)) from None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def read_json_object(path: str | Path) -> dict:
    """The JSON object stored at ``path``; any failure is ``CorruptFile``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CorruptFile(str(path), str(exc)) from None
    if not isinstance(payload, dict):
        raise CorruptFile(str(path), "not a JSON object")
    return payload
