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

from .artifacts import read_json_object, write_json, write_rows
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
        # Column of each channel name; the first wins if a name repeats.
        columns = {c.name: i for i, c in reversed(list(enumerate(self.channels)))}
        object.__setattr__(self, "_columns", columns)

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
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownChannel(name) from None

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.index_of(name)]

    def matrix_for(self, names: Sequence[str]) -> np.ndarray:
        """Rows-by-len(names) block of the selected channels, in given order.

        Names on a contiguous ascending run of columns give a read-only view
        of ``data``, so no reader copies a whole record; any other order is
        a copy.
        """
        idx = [self.index_of(n) for n in names]
        if idx and idx == list(range(idx[0], idx[0] + len(idx))):
            block = self.data[:, idx[0] : idx[0] + len(idx)]
            block.flags.writeable = False
            return block
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
            data=np.take(self.data, idx, axis=1),
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
    """Population mean/std per column of ``values``; see ``standardizer_from_moments``."""
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    m2 = ((values - mean) ** 2).sum(axis=0)
    return standardizer_from_moments(channels, len(values), mean, m2)


def standardizer_from_moments(
    channels: Sequence[str], count: float, mean: np.ndarray, m2: np.ndarray
) -> StandardizationParams:
    """Population mean/std from a row count, the column means and the sums
    of squared deviations (M2); constant columns get scale 1.

    The unit scale keeps the transform invertible; a warning flags the
    degenerate channel because it carries no information for regression.
    """
    scale = np.sqrt(m2 / count)
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


def pool_moments(
    counts: np.ndarray, means: np.ndarray, m2: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Row count, column means and M2 of the union of groups of rows.

    Row g of ``means`` and ``m2`` holds group g's, which has ``counts[g]``
    rows (Chan, Golub & LeVeque 1979). Means are merged as offsets from the
    first group's, so groups sharing one constant value pool to exactly that
    value and an M2 of exactly 0.
    """
    counts = np.asarray(counts, dtype=float)
    total = float(counts.sum())
    mean = means[0] + counts @ (means - means[0]) / total
    return total, mean, m2.sum(axis=0) + counts @ (means - mean) ** 2


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


def write_csv(ds: TimeSeriesDataset, path: str | Path) -> None:
    """Write a dataset as plain CSV: a header of channel names, then its rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ds.channel_names) + "\n")
        write_rows(fh, ds.data)


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
    a series boundary hold the single valid side constant. With no row to
    rewrite, ``ds`` itself comes back.
    """
    x = ds.column(channel)
    is_sent = x == sentinel
    rows = np.flatnonzero(is_sent & (ds.column(gate_channel) > 0))
    if rows.size == 0:
        return ds
    # Each rewritten row's nearest valid neighbor on either side.
    valid = np.flatnonzero(~is_sent)
    if valid.size == 0:
        raise AllSentinel(channel)
    after = np.searchsorted(valid, rows)
    has_left, has_right = after > 0, after < valid.size
    left = valid[np.maximum(after - 1, 0)]
    right = valid[np.minimum(after, valid.size - 1)]
    values = np.where(has_left, x[left], x[right])
    both = has_left & has_right
    lo, hi = left[both], right[both]
    frac = (rows[both] - lo) / (hi - lo)
    values[both] = x[lo] + frac * (x[hi] - x[lo])
    data = ds.data.copy()
    data[rows, ds.index_of(channel)] = values
    return ds.with_data(data)


def decimate(ds: TimeSeriesDataset, factor: int) -> TimeSeriesDataset:
    """Keep every ``factor``-th sample starting from row 0, as a strided view
    of ``ds.data``, not a copy.

    Deliberately no anti-alias filter: the point of the recording-rate study
    is to see what a slower sensor would have seen, and a slower sensor does
    not low-pass first.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("decimation factor must be a positive integer")
    factor = int(factor)
    return replace(ds, data=ds.data[::factor], sample_rate_hz=ds.sample_rate_hz / factor)


def zero_variance_channels(values: np.ndarray, names: Sequence[str]) -> list[str]:
    """Names of the columns of ``values`` (pooled samples) that are exactly constant."""
    if len(values) == 0:
        return []
    constant = np.all(values == values[0], axis=0)
    return [name for name, c in zip(names, constant) if c]


def load_schema(path: str | Path) -> tuple[ChannelSpec, ...]:
    payload = read_json_object(path)
    try:
        return tuple(ChannelSpec(**d) for d in payload["channels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(str(path), f"malformed channel list: {exc!r}") from None


def save_schema(channels: Iterable[ChannelSpec], path: str | Path) -> None:
    write_json(path, {"channels": list(channels)})


def _rate(value) -> float:
    if isinstance(value, (str, bool)):  # float() would take "100" and true (1 Hz)
        raise TypeError(f"sample_rate_hz must be a number, got {value!r}")
    return float(value)


def load_manifest(path: str | Path) -> ExperimentManifest:
    path = Path(path)
    payload = read_json_object(path)
    try:
        entries = tuple(
            ManifestEntry(
                experiment_id=e["experiment_id"],
                path=e["path"],
                sample_rate_hz=_rate(e["sample_rate_hz"]),
            )
            for e in payload["experiments"]
        )
        for i, e in enumerate(entries):
            if not (isinstance(e.experiment_id, str) and isinstance(e.path, str)):
                raise TypeError(f"experiment {i}: id and path must be strings, got {e}")
            if not 0 < e.sample_rate_hz < np.inf:
                raise ValueError(f"experiment {i}: rate must be finite and positive, got {e}")
        manifest = ExperimentManifest(entries=entries, root=path.parent)
        missing = [e.path for e in entries if not manifest.resolved_path(e).exists()]
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        raise CorruptFile(str(path), f"malformed experiment list: {exc!r}") from None
    if missing:
        raise DataError(f"manifest references missing file {missing[0]!r}")
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
