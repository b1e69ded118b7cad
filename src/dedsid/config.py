"""Run configuration: one JSON file drives every subcommand.

The dataclasses below are the schema. Each config key is a field, and a
missing key takes the field default. ``load_run_config`` checks every value
against its field type and rejects unknown keys, so a bad config ends in
``ConfigError`` naming the key. Paths resolve relative to the config file's
own directory so a config travels with its data.

Every artifact is stamped with ``config_sha256``: the sha256 of the payload
as written, with the effective seed substituted, serialized as key-sorted
compact JSON. Spelling out a default therefore changes the hash, although
it changes no result.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

from .artifacts import to_plain
from .errors import ConfigError
from .validation import EVAL_MODES


@dataclass(frozen=True)
class LpocvConfig:
    p: int = 3
    repeats: int = 10


@dataclass(frozen=True)
class VifConfig:
    remove_above: float = 10.0
    accept_below: float = 5.0


@dataclass(frozen=True)
class ImputationDirective:
    channel: str
    sentinel: float
    gate_channel: str


@dataclass(frozen=True)
class SpectrogramConfig:
    rows: int = 100
    cols: int = 100
    cap_hz: float = 1.0
    observable: str | None = None
    power_channel: str = "power_w"


@dataclass(frozen=True)
class BenchConfig:
    points: int = 1_000_000
    q: int = 3
    p: int = 21
    fit_target_us: float = 25.0
    rollout_target_us: float = 150.0


@dataclass(frozen=True)
class RunConfig:
    manifest: Path
    schema: Path
    output_dir: Path
    seed: int = 0
    lpocv: LpocvConfig = field(default_factory=LpocvConfig)
    vif: VifConfig = field(default_factory=VifConfig)
    imputation: tuple[ImputationDirective, ...] = ()
    decimation_factors: tuple[int, ...] = (1, 2, 5, 10, 25, 50)
    spectrogram: SpectrogramConfig = field(default_factory=SpectrogramConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)
    standardize_inputs: bool = True
    standardize_observables: bool = True
    svd_rank: int | None = None
    eval_mode: str = "rollout"
    predict_experiment: str | None = None
    position_channels: tuple[str, ...] = ("x_mm", "y_mm", "z_mm")
    # Stamped by load_run_config from the payload, never read from it.
    config_sha256: str = field(default="", metadata={"config_key": False})

    def provenance(self) -> dict:
        return {"config_sha256": self.config_sha256, "seed": self.seed}


_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string", Path: "a path"}


def _value(tp, value, key: str, base: Path):
    """``value`` checked against the field type ``tp``, paths resolved."""
    if get_origin(tp) is UnionType:  # ``X | None``, the only union used
        return None if value is None else _value(get_args(tp)[0], value, key, base)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
        return tuple(_value(get_args(tp)[0], v, f"{key}[{i}]", base) for i, v in enumerate(value))
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object")
        return _load_section(tp, value, base, f"{key}.")
    if tp is float:  # an int too large for a float fails the conversion below
        ok = isinstance(value, int) and not isinstance(value, bool)
        ok = ok or isinstance(value, float) and math.isfinite(value)
    elif tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, str if tp is Path else tp)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {_KINDS[tp]}, got {value!r}")
    try:
        if tp is Path:
            return (base / value).resolve()
        return float(value) if tp is float else value
    except (OSError, OverflowError, ValueError) as exc:  # NUL in a path, int beyond float
        raise ConfigError(f"config key {key!r} cannot be used: {exc}") from None


def _load_section(cls, mapping: dict, base: Path, prefix: str = ""):
    """An instance of the config dataclass ``cls`` read from ``mapping``.

    Each key is a field; a missing key takes the field default, an unknown
    one is an error.
    """
    keys = [f for f in fields(cls) if f.metadata.get("config_key", True)]
    unknown = sorted(set(mapping) - {f.name for f in keys})
    if unknown:
        raise ConfigError(f"unknown config key {prefix + unknown[0]!r}")
    hints = get_type_hints(cls)
    values = {}
    for f in keys:
        if f.name in mapping:
            values[f.name] = _value(hints[f.name], mapping[f.name], prefix + f.name, base)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config missing required key {prefix + f.name!r}")
    return cls(**values)


def load_run_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")

    cfg = _load_section(RunConfig, payload, path.parent)
    seed = cfg.seed if seed_override is None else int(seed_override)
    cfg = replace(cfg, seed=seed, config_sha256=_hash_resolved(payload, seed))

    if cfg.lpocv.p < 1 or cfg.lpocv.repeats < 1:
        raise ConfigError("lpocv p and repeats must be positive")
    if cfg.svd_rank is not None and cfg.svd_rank < 1:
        raise ConfigError(f"svd_rank must be at least 1, got {cfg.svd_rank}")
    b = cfg.bench
    if min(b.points, b.q, b.p) < 1:
        raise ConfigError(f"bench points, q and p must be at least 1, got {b.points}, {b.q}, {b.p}")
    sg = cfg.spectrogram
    if sg.rows < 1 or sg.cols < 1:
        raise ConfigError(f"spectrogram rows and cols must be at least 1, got {sg.rows}x{sg.cols}")
    if sg.cap_hz <= 0:
        raise ConfigError(f"spectrogram cap_hz must be finite and positive, got {sg.cap_hz}")
    if cfg.eval_mode not in EVAL_MODES:
        raise ConfigError(f"unknown eval_mode {cfg.eval_mode!r}")
    if any(f < 1 for f in cfg.decimation_factors):
        raise ConfigError("decimation factors must be positive integers")
    for p in (cfg.manifest, cfg.schema):
        if not p.exists():
            raise ConfigError(f"configured path does not exist: {p}")
    return cfg


def _hash_resolved(payload: dict, seed: int) -> str:
    resolved = dict(payload)
    resolved["seed"] = seed
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_config_payload(
    manifest: str,
    schema: str,
    output_dir: str,
    seed: int,
    imputation: Sequence[ImputationDirective] = (),
    predict_experiment: str | None = None,
    spectrogram_observable: str | None = None,
) -> dict:
    """Template payload written by the synth command, pipeline-ready: every
    key at its field default apart from the values passed in. The bench
    section configures ``dedsid bench`` alone and stays out."""
    payload = to_plain(
        RunConfig(
            manifest=Path(manifest),
            schema=Path(schema),
            output_dir=Path(output_dir),
            seed=seed,
            imputation=tuple(imputation),
            spectrogram=SpectrogramConfig(observable=spectrogram_observable),
            predict_experiment=predict_experiment,
        )
    )
    del payload["bench"], payload["config_sha256"]
    return payload
