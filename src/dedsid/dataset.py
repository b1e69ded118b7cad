"""Time-series dataset handling: ingestion, standardization, repair, decimation.

Every experiment is a uniformly sampled multichannel recording. Channels are
either machine inputs (commanded state) or observables (sensor readings); the
distinction drives everything downstream, so it lives in the schema rather
than in call sites.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import read_json_object, write_json
from .errors import (
    AllSentinel,
    CorruptFile,
    DataError,
    DegenerateChannelWarning,
    MissingColumn,
    NaNInRetainedColumn,
    NonUniformTimestamps,
    UnknownChannel,
)

CHANNEL_KINDS = ("input", "observable")
TIME_COLUMN = "time_s"


@dataclass(frozen=True)
class ChannelSpec:
    """One named channel with a unit label and an input/observable role."""

    name: str
    unit: str
    kind: str

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"channel kind must be one of {CHANNEL_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class TimeSeriesDataset:
    """A single experiment: rows are samples, columns follow ``channels``."""

    experiment_id: str
    sample_rate_hz: float
    channels: tuple[ChannelSpec, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be 2-D (rows = samples, cols = channels)")
        if data.shape[1] != len(self.channels):
            raise ValueError(
                f"data has {data.shape[1]} columns but schema lists {len(self.channels)} channels"
            )
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def row_count(self) -> int:
        return self.data.shape[0]

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.channels)

    def names_of_kind(self, kind: str) -> tuple[str, ...]:
        return tuple(c.name for c in self.channels if c.kind == kind)

    @property
    def input_names(self) -> tuple[str, ...]:
        return self.names_of_kind("input")

    @property
    def observable_names(self) -> tuple[str, ...]:
        return self.names_of_kind("observable")

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.channels):
            if c.name == name:
                return i
        raise UnknownChannel(name)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.index_of(name)]

    def matrix_for(self, names: Sequence[str]) -> np.ndarray:
        """Rows-by-len(names) view of the selected channels, in given order."""
        idx = [self.index_of(n) for n in names]
        return self.data[:, idx]

    def with_data(self, data: np.ndarray) -> "TimeSeriesDataset":
        return replace(self, data=data)

    def with_column(self, name: str, values: np.ndarray) -> "TimeSeriesDataset":
        data = self.data.copy()
        data[:, self.index_of(name)] = values
        return self.with_data(data)

    def select_channels(self, names: Sequence[str]) -> "TimeSeriesDataset":
        idx = [self.index_of(n) for n in names]
        return replace(
            self,
            channels=tuple(self.channels[i] for i in idx),
            data=self.data[:, idx].copy(),
        )


@dataclass(frozen=True)
class ManifestEntry:
    experiment_id: str
    path: str
    sample_rate_hz: float


@dataclass(frozen=True)
class ExperimentManifest:
    entries: tuple[ManifestEntry, ...]
    root: Path = field(default_factory=Path)

    def __post_init__(self):
        ids = [e.experiment_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DataError("manifest contains duplicate experiment ids")

    def resolved_path(self, entry: ManifestEntry) -> Path:
        return (Path(self.root) / entry.path).resolve()


@dataclass(frozen=True)
class IngestReport:
    """Machine-readable record of what ingestion kept and dropped."""

    experiment_id: str
    retained: tuple[str, ...]
    excluded_all_nan: tuple[str, ...]


@dataclass(frozen=True)
class StandardizationParams:
    """Per-channel shift/scale pairs, applied as (x - mean) / scale."""

    channels: tuple[str, ...]
    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        if mean.shape != (len(self.channels),) or scale.shape != (len(self.channels),):
            raise ValueError("mean/scale lengths must match channel list")
        if np.any(scale <= 0):
            raise ValueError("scales must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "channels", tuple(self.channels))

    def transform_matrix(self, values: np.ndarray) -> np.ndarray:
        """Standardize columns aligned with ``channels``."""
        return (np.asarray(values, dtype=float) - self.mean) / self.scale

    def invert_matrix(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.scale + self.mean

    @classmethod
    def identity(cls, channels: Sequence[str]) -> "StandardizationParams":
        n = len(channels)
        return cls(tuple(channels), np.zeros(n), np.ones(n))


def standardizer_from_matrix(values: np.ndarray, channels: Sequence[str]) -> StandardizationParams:
    """Population mean/std per column; constant columns get scale 1.

    The unit scale keeps the transform invertible; a warning flags the
    degenerate channel because it carries no information for regression.
    """
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    scale = values.std(axis=0)
    constant = scale == 0.0
    if np.any(constant):
        names = [channels[i] for i in np.nonzero(constant)[0]]
        warnings.warn(
            f"channels {names} are constant; using unit scale",
            DegenerateChannelWarning,
            stacklevel=2,
        )
        scale = np.where(constant, 1.0, scale)
    return StandardizationParams(tuple(channels), mean, scale)


def fit_standardizer(ds: TimeSeriesDataset, channels: Sequence[str]) -> StandardizationParams:
    """Fit per-channel shift/scale on one dataset (population statistics)."""
    return standardizer_from_matrix(ds.matrix_for(channels), channels)


def fit_standardizer_pooled(
    datasets: Sequence[TimeSeriesDataset], channels: Sequence[str]
) -> StandardizationParams:
    """Fit shift/scale on rows pooled across several datasets."""
    if not datasets:
        raise EmptyDatasetsError()
    stacked = np.concatenate([ds.matrix_for(channels) for ds in datasets], axis=0)
    return standardizer_from_matrix(stacked, channels)


class EmptyDatasetsError(DataError):
    def __init__(self):
        super().__init__("at least one dataset required")


def apply_standardizer(ds: TimeSeriesDataset, params: StandardizationParams) -> TimeSeriesDataset:
    data = ds.data.copy()
    for j, name in enumerate(params.channels):
        i = ds.index_of(name)
        data[:, i] = (data[:, i] - params.mean[j]) / params.scale[j]
    return ds.with_data(data)


def invert_standardizer(ds: TimeSeriesDataset, params: StandardizationParams) -> TimeSeriesDataset:
    data = ds.data.copy()
    for j, name in enumerate(params.channels):
        i = ds.index_of(name)
        data[:, i] = data[:, i] * params.scale[j] + params.mean[j]
    return ds.with_data(data)


def ingest_csv(
    path: str | Path,
    schema: Sequence[ChannelSpec],
    sample_rate_hz: float,
    experiment_id: str | None = None,
) -> tuple[TimeSeriesDataset, IngestReport]:
    """Read one experiment CSV against a channel schema.

    Every field after the header row must be a float literal (``nan`` and
    ``inf`` included); an empty or non-numeric field, or a row whose width
    differs from the header, is a ``CorruptFile``; a header-only file is zero
    rows. Columns wholly NaN are dropped and reported; a NaN inside an
    otherwise valid column is an error, because silent interpolation at ingest
    would mask sensor faults that the imputation stage handles explicitly. An
    optional leading ``time_s`` column is checked for uniform spacing against
    the declared sample rate and then discarded.
    """
    path = Path(path)
    if experiment_id is None:
        experiment_id = path.stem
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
    except OSError as exc:
        raise CorruptFile(str(path), str(exc)) from None
    if not header:
        raise CorruptFile(str(path), "empty file")
    header = [h.strip() for h in header]

    try:
        with warnings.catch_warnings():
            # A header-only file is a valid recording of zero rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            raw = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    except ValueError as exc:
        raise CorruptFile(str(path), str(exc)) from None
    if raw.size == 0:
        raw = np.empty((0, len(header)))
    if raw.shape[1] != len(header):
        raise CorruptFile(str(path), "row width disagrees with header")

    col_by_name = {name: raw[:, i] for i, name in enumerate(header)}
    if TIME_COLUMN in col_by_name:
        _check_time_column(col_by_name[TIME_COLUMN], sample_rate_hz)

    retained: list[ChannelSpec] = []
    excluded: list[str] = []
    columns: list[np.ndarray] = []
    for spec in schema:
        if spec.name not in col_by_name:
            raise MissingColumn(spec.name, str(path))
        col = col_by_name[spec.name]
        nan_mask = np.isnan(col)
        if nan_mask.all() and col.size > 0:
            excluded.append(spec.name)
            continue
        if nan_mask.any():
            raise NaNInRetainedColumn(spec.name, int(np.nonzero(nan_mask)[0][0]))
        retained.append(spec)
        columns.append(col)

    data = np.column_stack(columns) if columns else np.empty((raw.shape[0], 0))
    ds = TimeSeriesDataset(
        experiment_id=experiment_id,
        sample_rate_hz=sample_rate_hz,
        channels=tuple(retained),
        data=data,
    )
    report = IngestReport(
        experiment_id=experiment_id,
        retained=tuple(s.name for s in retained),
        excluded_all_nan=tuple(excluded),
    )
    return ds, report


def _check_time_column(times: np.ndarray, sample_rate_hz: float) -> None:
    if times.size < 2:
        return
    dt = 1.0 / sample_rate_hz
    diffs = np.diff(times)
    bad = np.nonzero(np.abs(diffs - dt) > 0.01 * dt)[0]
    if bad.size:
        row = int(bad[0]) + 1
        raise NonUniformTimestamps(row, dt, float(diffs[bad[0]]))


def write_csv(ds: TimeSeriesDataset, path: str | Path, time_column: bool = False) -> None:
    """Write a dataset as plain CSV, optionally with a leading time column."""
    names = list(ds.channel_names)
    data = ds.data
    if time_column:
        t = np.arange(ds.row_count) / ds.sample_rate_hz
        names = [TIME_COLUMN] + names
        data = np.column_stack([t, data]) if ds.row_count else np.empty((0, len(names)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, data, delimiter=",", fmt="%.17g")


def impute_off_state(
    ds: TimeSeriesDataset,
    channel: str,
    sentinel: float,
    gate_channel: str,
) -> TimeSeriesDataset:
    """Linearly interpolate sentinel readings that occur while the gate is live.

    A sensor that reports a fixed off-state value (for example -1) while the
    process is actually running produces sharp artificial steps. Each maximal
    run of sentinel samples is bridged between its nearest valid neighbors,
    but only rows where ``gate_channel`` > 0 are rewritten; sentinel readings
    with the gate off are genuine off states and stay untouched. Runs touching
    a series boundary hold the single valid side constant.
    """
    x = ds.column(channel).copy()
    gate = ds.column(gate_channel) > 0
    is_sent = x == sentinel
    n = x.size
    i = 0
    while i < n:
        if not is_sent[i]:
            i += 1
            continue
        j = i
        while j < n and is_sent[j]:
            j += 1
        gated_rows = np.nonzero(gate[i:j])[0] + i
        if gated_rows.size:
            left = i - 1 if i > 0 else None
            right = j if j < n else None
            if left is None and right is None:
                raise AllSentinel(channel)
            if left is None:
                x[gated_rows] = x[right]
            elif right is None:
                x[gated_rows] = x[left]
            else:
                span = right - left
                frac = (gated_rows - left) / span
                x[gated_rows] = x[left] + frac * (x[right] - x[left])
        i = j
    return ds.with_column(channel, x)


def decimate(ds: TimeSeriesDataset, factor: int) -> TimeSeriesDataset:
    """Keep every ``factor``-th sample starting from row 0.

    Deliberately no anti-alias filter: the point of the recording-rate study
    is to see what a slower sensor would have seen, and a slower sensor does
    not low-pass first.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("decimation factor must be a positive integer")
    factor = int(factor)
    return replace(
        ds,
        data=ds.data[::factor].copy(),
        sample_rate_hz=ds.sample_rate_hz / factor,
    )


def zero_variance_channels(datasets: Sequence[TimeSeriesDataset], names: Sequence[str]) -> list[str]:
    """Names whose pooled samples are exactly constant across all datasets."""
    stacked = np.concatenate([ds.matrix_for(names) for ds in datasets], axis=0)
    out = []
    for j, name in enumerate(names):
        col = stacked[:, j]
        if col.size and np.all(col == col[0]):
            out.append(name)
    return out


def load_schema(path: str | Path) -> tuple[ChannelSpec, ...]:
    payload = read_json_object(path)
    try:
        return tuple(ChannelSpec(**d) for d in payload["channels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(str(path), f"malformed channel list: {exc!r}") from None


def save_schema(channels: Iterable[ChannelSpec], path: str | Path) -> None:
    write_json(path, {"channels": list(channels)})


def load_manifest(path: str | Path) -> ExperimentManifest:
    path = Path(path)
    payload = read_json_object(path)
    try:
        entries = tuple(
            ManifestEntry(
                experiment_id=e["experiment_id"],
                path=e["path"],
                sample_rate_hz=float(e["sample_rate_hz"]),
            )
            for e in payload["experiments"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(str(path), f"malformed experiment list: {exc!r}") from None
    manifest = ExperimentManifest(entries=entries, root=path.parent)
    for entry in manifest.entries:
        if not manifest.resolved_path(entry).exists():
            raise DataError(f"manifest references missing file {entry.path!r}")
    return manifest


def save_manifest(manifest: ExperimentManifest, path: str | Path) -> None:
    write_json(path, {"experiments": manifest.entries})


def load_datasets(
    manifest: ExperimentManifest, schema: Sequence[ChannelSpec]
) -> tuple[list[TimeSeriesDataset], list[IngestReport]]:
    """Ingest every experiment in the manifest against one schema."""
    datasets, reports = [], []
    for entry in manifest.entries:
        ds, report = ingest_csv(
            manifest.resolved_path(entry),
            schema,
            entry.sample_rate_hz,
            experiment_id=entry.experiment_id,
        )
        datasets.append(ds)
        reports.append(report)
    return datasets, reports
