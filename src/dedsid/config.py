"""Run configuration: one JSON file drives every subcommand.

Paths inside the file resolve relative to the file's own directory so a
config travels with its data. The sha256 of the resolved config plus the
effective seed is stamped into every artifact, which is what makes reruns
byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError


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
    config_sha256: str = ""

    def provenance(self) -> dict:
        return {"config_sha256": self.config_sha256, "seed": self.seed}


def _require(payload: dict, key: str) -> object:
    if key not in payload:
        raise ConfigError(f"config missing required key {key!r}")
    return payload[key]


def _section(payload: dict, key: str) -> dict:
    section = payload.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be a JSON object")
    return section


def load_run_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")

    base = path.parent
    seed = int(payload.get("seed", 0)) if seed_override is None else int(seed_override)

    lp = _section(payload, "lpocv")
    vif = _section(payload, "vif")
    spectro = _section(payload, "spectrogram")
    bench = _section(payload, "bench")
    try:
        cfg = RunConfig(
            manifest=(base / str(_require(payload, "manifest"))).resolve(),
            schema=(base / str(_require(payload, "schema"))).resolve(),
            output_dir=(base / str(_require(payload, "output_dir"))).resolve(),
            seed=seed,
            lpocv=LpocvConfig(p=int(lp.get("p", 3)), repeats=int(lp.get("repeats", 10))),
            vif=VifConfig(
                remove_above=float(vif.get("remove_above", 10.0)),
                accept_below=float(vif.get("accept_below", 5.0)),
            ),
            imputation=tuple(
                ImputationDirective(
                    channel=str(d["channel"]),
                    sentinel=float(d["sentinel"]),
                    gate_channel=str(d["gate_channel"]),
                )
                for d in payload.get("imputation", [])
            ),
            decimation_factors=tuple(
                int(f) for f in payload.get("decimation_factors", (1, 2, 5, 10, 25, 50))
            ),
            spectrogram=SpectrogramConfig(
                rows=int(spectro.get("rows", 100)),
                cols=int(spectro.get("cols", 100)),
                cap_hz=float(spectro.get("cap_hz", 1.0)),
                observable=spectro.get("observable"),
                power_channel=str(spectro.get("power_channel", "power_w")),
            ),
            bench=BenchConfig(
                points=int(bench.get("points", 1_000_000)),
                q=int(bench.get("q", 3)),
                p=int(bench.get("p", 21)),
                fit_target_us=float(bench.get("fit_target_us", 25.0)),
                rollout_target_us=float(bench.get("rollout_target_us", 150.0)),
            ),
            standardize_inputs=bool(payload.get("standardize_inputs", True)),
            standardize_observables=bool(payload.get("standardize_observables", True)),
            svd_rank=(None if payload.get("svd_rank") is None else int(payload["svd_rank"])),
            eval_mode=str(payload.get("eval_mode", "rollout")),
            predict_experiment=payload.get("predict_experiment"),
            position_channels=tuple(payload.get("position_channels", ("x_mm", "y_mm", "z_mm"))),
            config_sha256=_hash_resolved(payload, seed),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from None

    if cfg.lpocv.p < 1 or cfg.lpocv.repeats < 1:
        raise ConfigError("lpocv p and repeats must be positive")
    if cfg.svd_rank is not None and cfg.svd_rank < 1:
        raise ConfigError(f"svd_rank must be at least 1, got {cfg.svd_rank}")
    if cfg.eval_mode not in ("rollout", "one-step"):
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
    imputation: list[dict] | None = None,
    predict_experiment: str | None = None,
    spectrogram_observable: str | None = None,
) -> dict:
    """Template payload written by the synth command, pipeline-ready."""
    return {
        "manifest": manifest,
        "schema": schema,
        "output_dir": output_dir,
        "seed": seed,
        "lpocv": {"p": 3, "repeats": 10},
        "vif": {"remove_above": 10.0, "accept_below": 5.0},
        "imputation": imputation or [],
        "decimation_factors": [1, 2, 5, 10, 25, 50],
        "spectrogram": {
            "rows": 100,
            "cols": 100,
            "cap_hz": 1.0,
            "observable": spectrogram_observable,
            "power_channel": "power_w",
        },
        "standardize_inputs": True,
        "standardize_observables": True,
        "svd_rank": None,
        "eval_mode": "rollout",
        "predict_experiment": predict_experiment,
        "position_channels": ["x_mm", "y_mm", "z_mm"],
    }
