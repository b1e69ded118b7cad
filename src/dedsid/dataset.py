"""Time-series dataset handling: ingestion, standardization, repair, decimation.

Every experiment is a uniformly sampled multichannel recording. Channels are
either machine inputs (commanded state) or observables (sensor readings); the
distinction drives everything downstream, so it lives in the schema rather
than in call sites.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .artifacts import from_plain, read_json_object, write_json, write_rows
from .errors import (
    AllSentinel,
    CorruptFile,
    DataError,
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

    @classmethod
    def identity(cls, channels: Sequence[str]) -> "StandardizationParams":
        n = len(channels)
        return cls(tuple(channels), np.zeros(n), np.ones(n))


def standardizer_from_moments(
    channels: Sequence[str], count: float, mean: np.ndarray, m2: np.ndarray
) -> StandardizationParams:
    """Population mean/std from a row count, the column means and the sums
    of squared deviations (M2); constant columns get scale 1.

    The unit scale keeps the transform invertible. A constant channel
    carries no information for regression: its centred column is exactly
    zero, and a fit records it in ``numerical_rank``.
    """
    scale = np.sqrt(m2 / count)
    return StandardizationParams(tuple(channels), mean, np.where(scale == 0.0, 1.0, scale))


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


class ParseCache:
    """Experiment files read once each, and parsed at most once per ``root``.

    ``digest`` reads a file and returns the sha256 of its bytes; ``parse``
    turns those same bytes into the header and the float matrix below it.
    With a ``root``, the matrix of bytes whose digest is D is kept in
    ``root/D.npy``, and ``parse`` loads it in place of ``np.loadtxt``. An
    entry that is not a float matrix as wide as the header counts as
    absent, so it is parsed again and replaced. A fresh parse waits in
    memory until ``save`` writes it (a temporary file, then ``os.replace``),
    so a run that stops early writes no entry.
    """

    def __init__(self, root: Path | None = None):
        self.root = root
        self._digests: dict[Path, str] = {}
        self._contents: dict[Path, bytes] = {}
        self._pending: dict[str, np.ndarray] = {}

    def digest(self, path: Path) -> str:
        if path not in self._digests:
            import hashlib  # OpenSSL adds ~4 MB to a process; only digesting runs need it

            try:
                content = path.read_bytes()
            except OSError as exc:
                raise CorruptFile(str(path), str(exc)) from None
            self._digests[path] = hashlib.sha256(content).hexdigest()
            self._contents[path] = content
        return self._digests[path]

    def parse(self, path: Path) -> tuple[list[str], np.ndarray]:
        digest = self.digest(path)
        if path not in self._contents:  # parsed before: read again, unchanged
            del self._digests[path]
            if self.digest(path) != digest:
                raise CorruptFile(str(path), "changed while the run read it")
        content = self._contents.pop(path)
        header = _csv_header(path, content)
        raw = self._load(digest, len(header))
        if raw is None:
            raw = _parse_rows(path, content, len(header))
            if self.root is not None:
                self._pending[digest] = raw
        return header, raw

    def _load(self, digest: str, width: int) -> np.ndarray | None:
        if self.root is None:
            return None
        try:
            raw = np.load(self.root / f"{digest}.npy", allow_pickle=False)
        except (OSError, ValueError, EOFError):
            return None
        fits = isinstance(raw, np.ndarray) and raw.dtype == np.float64 and raw.ndim == 2
        return raw if fits and raw.shape[1] == width else None

    def save(self, keep: Collection[str]) -> None:
        """Write every entry parsed since the last save, and remove each entry
        whose digest is not in ``keep``; one that cannot be written is left
        out, and a later run parses its file again."""
        for entry in self.root.glob("*.npy") if self.root is not None else ():
            if entry.stem not in keep:
                with suppress(OSError):  # one that cannot be removed stays
                    entry.unlink()
        for digest, raw in self._pending.items():
            entry = self.root / f"{digest}.npy"
            partial = entry.with_name(f"{digest}.{os.getpid()}.tmp")
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                with open(partial, "wb") as fh:
                    np.save(fh, raw)
                os.replace(partial, entry)
            except OSError:
                partial.unlink(missing_ok=True)
        self._pending.clear()


def _csv_header(path: Path, content: bytes) -> list[str]:
    try:
        header = next(csv.reader(io.TextIOWrapper(io.BytesIO(content), newline="")), None)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CorruptFile(str(path), str(exc)) from None
    if not header:
        raise CorruptFile(str(path), "empty file")
    header = [h.strip() for h in header]
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise CorruptFile(str(path), f"column {repeated[0]!r} named twice in the header")
    return header


def _parse_rows(path: Path, content: bytes, width: int) -> np.ndarray:
    """The float matrix after the header row; a header-only file is 0 x ``width``."""
    try:
        with warnings.catch_warnings():
            # A header-only file is a valid recording of zero rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            raw = np.loadtxt(io.BytesIO(content), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CorruptFile(str(path), str(exc)) from None
    return np.empty((0, width)) if raw.size == 0 else raw


def ingest_csv(
    path: str | Path,
    schema: Sequence[ChannelSpec],
    sample_rate_hz: float,
    experiment_id: str | None = None,
    cache: ParseCache | None = None,
) -> tuple[TimeSeriesDataset, IngestReport]:
    """Read one experiment CSV against a channel schema.

    Every field after the header row must be a float literal (``nan`` and
    ``inf`` included); an empty or non-numeric field, or a row whose width
    differs from the header, is a ``CorruptFile``; a header-only file is zero
    rows. Columns wholly NaN are dropped and reported; a NaN inside an
    otherwise valid column is an error, because silent interpolation at ingest
    would mask sensor faults that the imputation stage handles explicitly. An
    optional leading ``time_s`` column is checked for uniform spacing against
    the declared sample rate and then discarded. The file is read and parsed
    through ``cache`` (by default one that keeps nothing); every check runs
    whether its matrix was parsed or loaded.
    """
    path = Path(path)
    if experiment_id is None:
        experiment_id = path.stem
    header, raw = (cache or ParseCache()).parse(path)
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


def load_schema(path: str | Path) -> tuple[ChannelSpec, ...]:
    payload = read_json_object(path)
    try:
        channels = from_plain(tuple[ChannelSpec, ...], payload.get("channels"), key="channels")
    except ValueError as exc:
        raise CorruptFile(str(path), f"malformed channel list: {exc}") from None
    names = [c.name for c in channels]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise CorruptFile(str(path), f"channel {repeated[0]!r} listed twice")
    return channels


def save_schema(channels: Iterable[ChannelSpec], path: str | Path) -> None:
    write_json(path, {"channels": list(channels)})


def load_manifest(path: str | Path) -> ExperimentManifest:
    path = Path(path)
    payload = read_json_object(path)
    try:
        entries = from_plain(
            tuple[ManifestEntry, ...], payload.get("experiments"), key="experiments"
        )
        for i, e in enumerate(entries):
            if not e.sample_rate_hz > 0:
                raise ValueError(f"experiment {i}: rate must be positive, got {e}")
        manifest = ExperimentManifest(entries=entries, root=path.parent)
        missing = [e.path for e in entries if not manifest.resolved_path(e).exists()]
    except (ValueError, OSError) as exc:
        raise CorruptFile(str(path), f"malformed experiment list: {exc}") from None
    if missing:
        raise DataError(f"manifest references missing file {missing[0]!r}")
    return manifest


def save_manifest(manifest: ExperimentManifest, path: str | Path) -> None:
    write_json(path, {"experiments": manifest.entries})


def load_datasets(
    manifest: ExperimentManifest, schema: Sequence[ChannelSpec], cache: ParseCache | None = None
) -> tuple[list[TimeSeriesDataset], list[IngestReport]]:
    """Ingest every experiment in the manifest against one schema, through ``cache``."""
    datasets, reports = [], []
    for entry in manifest.entries:
        ds, report = ingest_csv(
            manifest.resolved_path(entry),
            schema,
            entry.sample_rate_hz,
            experiment_id=entry.experiment_id,
            cache=cache,
        )
        datasets.append(ds)
        reports.append(report)
    return datasets, reports
