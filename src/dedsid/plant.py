"""Synthetic plant: a known linear system that stands in for the real machine.

Everything downstream is validated against data whose generating (A, B) is
known exactly, so correctness claims are closures: simulate with a spec, fit,
compare operators. Generators here also produce the bundled demo experiments
(serpentine toolpaths, pulsed laser, redundant decoy features) used by the
command-line pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import write_json
from .dataset import ChannelSpec, TimeSeriesDataset
from .dmdc import linear_recurrence, spectral_radius
from .errors import DimensionMismatch, UnknownChannel
from .gcode import INPUT_CHANNELS, parse_gcode_subset, program_to_timeseries


@dataclass(frozen=True)
class DropoutSpec:
    """Random sentinel injection on one observable, optionally gated."""

    channel: str
    probability: float
    sentinel: float
    gate_channel: str | None = None


@dataclass(frozen=True)
class PlantSpec:
    A: np.ndarray
    B: np.ndarray
    input_channels: tuple[ChannelSpec, ...]
    observable_channels: tuple[ChannelSpec, ...]
    noise_sd: np.ndarray
    dropout: DropoutSpec | None = None

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        noise = np.asarray(self.noise_sd, dtype=float)
        q = len(self.observable_channels)
        p = len(self.input_channels)
        if a.shape != (q, q):
            raise DimensionMismatch(f"A must be {q}x{q}, got {a.shape}")
        if b.shape != (q, p):
            raise DimensionMismatch(f"B must be {q}x{p}, got {b.shape}")
        if noise.shape != (q,):
            raise DimensionMismatch("noise_sd must have one entry per observable")
        if np.any(noise < 0):
            raise ValueError("noise_sd must be nonnegative")
        radius = spectral_radius(a)
        if not radius < 1.0:
            # An unstable plant makes every long rollout meaningless.
            raise ValueError(f"A must have spectral radius below 1, got {radius:.4f}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "noise_sd", noise)
        object.__setattr__(self, "input_channels", tuple(self.input_channels))
        object.__setattr__(self, "observable_channels", tuple(self.observable_channels))

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.input_channels)

    @property
    def observable_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.observable_channels)


def save_plant(spec: PlantSpec, path: str | Path) -> None:
    write_json(path, spec)


@dataclass(frozen=True)
class SimulationResult:
    """Measured dataset plus the noiseless trajectory it was derived from."""

    dataset: TimeSeriesDataset
    clean_observables: np.ndarray


def simulate(
    spec: PlantSpec,
    inputs: TimeSeriesDataset,
    y0: np.ndarray | None = None,
    seed: int | None = None,
    experiment_id: str | None = None,
) -> SimulationResult:
    """Drive the plant with a sampled input dataset.

    Observable row t satisfies y[t] = A y[t-1] + B u[t-1] to rounding before
    noise; row 0 is the initial state (default zero). The drive B u[t-1] is
    written into rows 1.. of the clean trajectory, which the scan overwrites
    in place, so the trajectory is held once. Observation noise and
    sentinel dropout are applied after the recursion, in that order, from a
    single seeded generator.
    """
    for name in spec.input_names:
        if name not in inputs.channel_names:
            raise UnknownChannel(name)
    u = inputs.matrix_for(spec.input_names)
    m = u.shape[0]
    q = len(spec.observable_channels)
    y0 = np.zeros(q) if y0 is None else np.asarray(y0, dtype=float).ravel()
    if y0.shape != (q,):
        raise DimensionMismatch(f"y0 must have length {q}")

    clean = np.empty((m, q))
    if m:
        clean[0] = y0
        np.matmul(u[:-1], spec.B.T, out=clean[1:])
        linear_recurrence(spec.A, clean[1:], y0)

    # The record is written once: the inputs, then the observables, noised in place.
    rng = np.random.default_rng(seed)
    channels = inputs.channels + spec.observable_channels
    data = np.empty((m, len(channels)))
    k = len(inputs.channels)
    data[:, :k] = inputs.data
    observed = data[:, k:]
    observed[:] = clean
    if np.any(spec.noise_sd > 0):
        observed += rng.normal(0.0, spec.noise_sd, size=(m, q))
    if spec.dropout is not None:
        d = spec.dropout
        col = [c.name for c in channels].index(d.channel)
        hit = rng.random(m) < d.probability
        if d.gate_channel is not None:
            gate_col = [c.name for c in channels].index(d.gate_channel)
            hit &= data[:, gate_col] > 0
        data[hit, col] = d.sentinel
    ds = TimeSeriesDataset(
        experiment_id=experiment_id or inputs.experiment_id,
        sample_rate_hz=inputs.sample_rate_hz,
        channels=channels,
        data=data,
    )
    return SimulationResult(dataset=ds, clean_observables=clean)


def generic_channels(prefix: str, kind: str, count: int, unit: str = "au") -> tuple[ChannelSpec, ...]:
    return tuple(ChannelSpec(f"{prefix}{i + 1}", unit, kind) for i in range(count))


def random_stable_plant(
    q: int,
    p: int,
    seed: int | None = None,
    radius: float = 0.9,
    noise_sd: float | Sequence[float] = 0.0,
    input_scale: float = 1.0,
) -> PlantSpec:
    """Seeded random plant with a prescribed spectral radius."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(q, q))
    a *= radius / spectral_radius(a)
    b = rng.normal(size=(q, p)) * input_scale
    noise = np.broadcast_to(np.asarray(noise_sd, dtype=float), (q,)).copy()
    return PlantSpec(
        A=a,
        B=b,
        input_channels=generic_channels("u", "input", p),
        observable_channels=generic_channels("y", "observable", q),
        noise_sd=noise,
    )


def gaussian_inputs(
    names: Sequence[str],
    steps: int,
    sample_rate_hz: float,
    seed: int | None = None,
    experiment_id: str = "gaussian",
) -> TimeSeriesDataset:
    """White-noise excitation, persistently exciting for any finite order."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(steps, len(names)))
    return TimeSeriesDataset(
        experiment_id=experiment_id,
        sample_rate_hz=sample_rate_hz,
        channels=tuple(ChannelSpec(n, "au", "input") for n in names),
        data=data,
    )


# --- bundled demo experiment set -------------------------------------------

DEMO_INPUT_CHANNELS = INPUT_CHANNELS + (
    ChannelSpec("program_time_s", "s", "input"),
    ChannelSpec("infill_flag", "0/1", "input"),
    ChannelSpec("contour_flag", "0/1", "input"),
    ChannelSpec("shield_gas_lpm", "L/min", "input"),
)

DEMO_OBSERVABLE_CHANNELS = (
    ChannelSpec("melt_pool_size_mm", "mm", "observable"),
    ChannelSpec("melt_pool_temp_c", "C", "observable"),
    ChannelSpec("working_distance_mm", "mm", "observable"),
)


def demo_plant(dropout_probability: float) -> PlantSpec:
    """Hand-tuned plant over the demo channels.

    Decoy features (flags, program time, shield gas) get zero columns in B so
    collinearity screening can drop them without touching the physics. The
    magnitudes put observables in plausible ranges for raw-unit inputs.
    """
    names = [c.name for c in DEMO_INPUT_CHANNELS]
    a = np.array(
        [
            [0.90, 0.00002, 0.0],
            [0.002, 0.85, 0.0],
            [0.0, 0.0, 0.94],
        ]
    )
    b = np.zeros((3, len(names)))
    b[0, names.index("power_w")] = 0.00045
    b[0, names.index("scan_rate_mm_min")] = -0.00012
    b[1, names.index("power_w")] = 0.40
    b[1, names.index("scan_rate_mm_min")] = -0.05
    b[2, names.index("z_mm")] = 0.004
    b[2, names.index("power_w")] = 0.0003
    dropout = None
    if dropout_probability > 0:
        dropout = DropoutSpec(
            channel="working_distance_mm",
            probability=dropout_probability,
            sentinel=-1.0,
            gate_channel="power_w",
        )
    return PlantSpec(
        A=a,
        B=b,
        input_channels=DEMO_INPUT_CHANNELS,
        observable_channels=DEMO_OBSERVABLE_CHANNELS,
        noise_sd=np.array([0.01, 4.0, 0.02]),
        dropout=dropout,
    )


def serpentine_gcode(
    layers: int,
    lines: int,
    line_length_mm: float,
    pitch_mm: float,
    feed_mm_min: float,
    power_w: float,
    layer_height_mm: float = 0.5,
    layer_dwell_s: float = 0.5,
) -> str:
    """Back-and-forth fill pattern with a dwell and z hop between layers."""
    out = ["; serpentine demo part", f"G0 X0 Y0 Z0 F{feed_mm_min:g}"]
    for layer in range(layers):
        out.append(f"M3 S{power_w:g}")
        for line in range(lines):
            x = line_length_mm if line % 2 == 0 else 0.0
            out.append(f"G1 X{x:g}")
            if line < lines - 1:
                out.append(f"G1 Y{(line + 1) * pitch_mm:g}")
        out.append("M5")
        out.append(f"G4 P{layer_dwell_s:g}")
        if layer < layers - 1:
            out.append(f"G1 Z{(layer + 1) * layer_height_mm:g}")
            out.append("G1 X0 Y0")
    out.append("G4 P1.0")
    return "\n".join(out) + "\n"


def _demo_inputs(rng: np.random.Generator, sample_rate_hz: float, experiment_id: str) -> TimeSeriesDataset:
    layers = int(rng.integers(2, 4))
    lines = int(rng.integers(4, 7))
    line_len = float(rng.uniform(15.0, 25.0))
    power = float(rng.uniform(420.0, 520.0))
    text = serpentine_gcode(
        layers=layers,
        lines=lines,
        line_length_mm=line_len,
        pitch_mm=1.0,
        feed_mm_min=600.0,
        power_w=power,
    )
    base = program_to_timeseries(parse_gcode_subset(text), sample_rate_hz)
    m = base.row_count

    # Pulse-modulate the commanded power on a fixed grid so pulse lengths
    # bucket cleanly for the spectral stage. At 10 Hz and below the grid
    # rounds to zero samples, and a zero-length block would never advance.
    gate = np.zeros(m)
    block = max(1, int(round(0.05 * sample_rate_hz)))
    pos = 0
    on = True
    while pos < m:
        count = int(rng.choice((1, 2, 3, 4, 5) if on else (1, 2))) * block
        if on:
            gate[pos : pos + count] = 1.0
        pos += count
        on = not on
    data = base.data.copy()
    data[:, base.index_of("power_w")] *= gate

    y = base.column("y_mm")
    moving = base.column("scan_rate_mm_min") > 0
    # Contour on the outermost passes, infill inside; complement by design.
    y_span = y.max() - y.min() if m else 0.0
    contour = ((y <= y.min() + 1e-9) | (y >= y.max() - 1e-9)) & moving if y_span > 0 else moving
    infill = 1.0 - contour.astype(float)
    contour = contour.astype(float)
    program_time = np.arange(m) / sample_rate_hz
    shield = np.full(m, 12.0)

    return TimeSeriesDataset(
        experiment_id=experiment_id,
        sample_rate_hz=sample_rate_hz,
        channels=DEMO_INPUT_CHANNELS,
        data=np.column_stack([data, program_time, infill, contour, shield]),
    )


def make_demo_experiments(
    n_experiments: int,
    seed: int,
    sample_rate_hz: float = 100.0,
    dropout_probability: float = 0.05,
) -> tuple[PlantSpec, list[TimeSeriesDataset]]:
    """Seeded demo corpus: toolpath-driven inputs through the demo plant."""
    spec = demo_plant(dropout_probability=dropout_probability)
    rng = np.random.default_rng(seed)
    datasets = []
    for i in range(n_experiments):
        exp_id = f"exp{i + 1:02d}"
        inputs = _demo_inputs(rng, sample_rate_hz, exp_id)
        sim_seed = int(rng.integers(0, 2**31 - 1))
        datasets.append(simulate(spec, inputs, seed=sim_seed, experiment_id=exp_id).dataset)
    return spec, datasets
