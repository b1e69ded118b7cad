"""Run configuration: one JSON file drives every subcommand.

The dataclasses below are the schema, and the one declaration of every run
setting's default: library functions that take one of these settings as a
parameter default to the field here. Each config key is a field, and a
missing key takes the field default. ``load_run_config`` reads the payload
with ``artifacts.from_plain``, which checks every value against its field
type and rejects unknown keys, so a bad config ends in ``ConfigError``
naming the key. Paths resolve relative to the config file's own directory
so a config travels with its data.

Every artifact is stamped with ``config_sha256``: the sha256 of the payload
as written, with the effective seed substituted, serialized as key-sorted
compact JSON. Spelling out a default therefore changes the hash, although
it changes no result.
"""

from __future__ import annotations

import hashlib
import json
import stat
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .artifacts import from_plain, to_plain
from .errors import ConfigError

@dataclass(frozen=True)
class FitConfig:
    """What to fit on and how, shared by every cross-validation consumer."""

    inputs: tuple[str, ...]
    observables: tuple[str, ...]
    standardize_inputs: bool = True
    standardize_observables: bool = True
    svd_rank: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "observables", tuple(self.observables))


@dataclass(frozen=True)
class LpocvConfig:
    p: int = 3
    repeats: int = 10


@dataclass(frozen=True)
class VifConfig:
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
    standardize_inputs: bool = FitConfig.standardize_inputs
    standardize_observables: bool = FitConfig.standardize_observables
    svd_rank: int | None = FitConfig.svd_rank
    predict_experiment: str | None = None
    position_channels: tuple[str, ...] = ("x_mm", "y_mm", "z_mm")
    # Stamped by load_run_config from the payload, never read from it.
    config_sha256: str = field(default="", metadata={"from_plain": False})

    def provenance(self) -> dict:
        return {"config_sha256": self.config_sha256, "seed": self.seed}


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

    try:
        cfg = from_plain(RunConfig, payload, path.parent, label="config ")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    seed = check_seed(cfg.seed if seed_override is None else int(seed_override))
    cfg = replace(cfg, seed=seed, config_sha256=_hash_resolved(payload, seed))

    if cfg.lpocv.p < 1 or cfg.lpocv.repeats < 1:
        raise ConfigError("lpocv p and repeats must be positive")
    if cfg.svd_rank is not None and cfg.svd_rank < 1:
        raise ConfigError(f"svd_rank must be at least 1, got {cfg.svd_rank}")
    sg = cfg.spectrogram
    if sg.rows < 1 or sg.cols < 1:
        raise ConfigError(f"spectrogram rows and cols must be at least 1, got {sg.rows}x{sg.cols}")
    if sg.cap_hz <= 0:
        raise ConfigError(f"spectrogram cap_hz must be finite and positive, got {sg.cap_hz}")
    if any(f < 1 for f in cfg.decimation_factors):
        raise ConfigError("decimation factors must be positive integers")
    for p in (cfg.manifest, cfg.schema):
        if not p.exists():
            raise ConfigError(f"configured path does not exist: {p}")
    check_output_dir(cfg.output_dir)
    return cfg


def check_seed(seed: int) -> int:
    """``seed``, which numpy's generators take only when it is non-negative."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def check_output_dir(path: Path) -> None:
    """Refuse an output directory that is an existing file, lies under one, or
    has a name the file system refuses (``Path.exists`` hides that last on
    newer Pythons, so the nearest existing path is found by ``stat``)."""
    for existing in (path, *path.parents):
        try:
            mode = existing.stat().st_mode
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:
            raise ConfigError(f"output directory {path} cannot be made: {exc.strerror}") from None
        if not stat.S_ISDIR(mode):
            raise ConfigError(f"output directory {path} cannot be made: {existing} is a file")
        return


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
    key at its field default apart from the values passed in."""
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
    del payload["config_sha256"]
    return payload
