"""Shared builders for the test suite."""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from dedsid import dmdc
from dedsid.artifacts import from_plain, read_json_object
from dedsid.config import FitConfig, VifConfig
from dedsid.dataset import (
    ChannelSpec,
    StandardizationParams,
    TimeSeriesDataset,
    standardizer_from_moments,
)
from dedsid.errors import (
    AllSentinel,
    ConstantActual,
    CorruptFile,
    DimensionMismatch,
    EmptySample,
    InsufficientPairs,
    ZeroFeedMove,
)
from dedsid.gcode import Dwell, LinearMove, SetPower
from dedsid.plant import (
    PlantSpec,
    SimulationResult,
    gaussian_inputs,
    random_stable_plant,
    simulate,
)
from dedsid.spectral import MIN_SEGMENT_SAMPLES, PulseSpectrum
from dedsid.validation import run_lpocv
from dedsid.vif import select_features
from dedsid.wasserstein import _uniform_w1, _w1_partition

_EPS = float(np.finfo(float).eps)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def mostly(valid):
    """A value from ``valid`` three times in four, any JSON value otherwise.

    Keys are checked in field order, so later keys are only reached when the
    earlier ones hold values of the right type.
    """
    return st.integers(0, 3).flatmap(lambda i: JSON_VALUES if i == 0 else valid)


def make_dataset(
    data,
    names=None,
    kinds=None,
    rate=100.0,
    experiment_id="t",
) -> TimeSeriesDataset:
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    k = data.shape[1]
    if names is None:
        names = [f"c{i}" for i in range(k)]
    if kinds is None:
        kinds = ["observable"] * k
    channels = tuple(ChannelSpec(n, "au", kd) for n, kd in zip(names, kinds))
    return TimeSeriesDataset(
        experiment_id=experiment_id, sample_rate_hz=rate, channels=channels, data=data
    )


def pulse_train_inputs(
    names: Sequence[str],
    steps: int,
    sample_rate_hz: float,
    seed: int | None = None,
    grid_s: float = 0.05,
    aux_grid_s: float = 0.1,
    level_range: tuple[float, float] = (0.5, 1.5),
    aux_scale: float = 1.0,
    on_blocks: Sequence[int] = (1, 2, 3, 4, 6),
    off_blocks: Sequence[int] = (1, 2, 3),
    lead_s: float = 1.0,
    tail_s: float = 1.5,
    experiment_id: str = "pulses",
) -> TimeSeriesDataset:
    """Pulsed first channel plus block-constant auxiliary channels.

    The first name is treated as the pulsed power-like channel: runs of
    ``on_blocks``/``off_blocks`` grid units with a random level per pulse.
    Remaining channels hold a random level per ``aux_grid_s`` block. All
    channels are zero during the lead-in and tail so simulated experiments
    start and end at rest.
    """
    rng = np.random.default_rng(seed)
    block = max(1, int(round(grid_s * sample_rate_hz)))
    aux_block = max(1, int(round(aux_grid_s * sample_rate_hz)))
    lead = int(round(lead_s * sample_rate_hz))
    tail = int(round(tail_s * sample_rate_hz))
    active = max(0, steps - lead - tail)

    power = np.zeros(steps)
    pos = lead
    end_active = lead + active
    on = False
    while pos < end_active:
        count = int(rng.choice(on_blocks if on else off_blocks)) * block
        count = min(count, end_active - pos)
        if on:
            power[pos : pos + count] = rng.uniform(*level_range)
        pos += count
        on = not on

    data = np.zeros((steps, len(names)))
    data[:, 0] = power
    for j in range(1, len(names)):
        n_blocks = math.ceil(active / aux_block) if active else 0
        levels = rng.normal(0.0, aux_scale, size=n_blocks)
        col = np.repeat(levels, aux_block)[:active]
        data[lead:end_active, j] = col
    return TimeSeriesDataset(
        experiment_id=experiment_id,
        sample_rate_hz=sample_rate_hz,
        channels=tuple(ChannelSpec(n, "au", "input") for n in names),
        data=data,
    )


def linear_corpus(
    q=2,
    p=2,
    n_exp=6,
    steps=1200,
    seed=0,
    noise_sd=0.0,
    radius=0.9,
    rate=100.0,
):
    """Random stable plant driven by pulse trains with idle lead/tail.

    The idle ends matter: they let standardized refits stay exact because
    every experiment starts and finishes at rest.
    """
    spec = random_stable_plant(q, p, seed=seed, radius=radius, noise_sd=noise_sd)
    rng = np.random.default_rng(seed + 1)
    datasets = []
    for i in range(n_exp):
        inputs = pulse_train_inputs(
            spec.input_names,
            steps,
            rate,
            seed=int(rng.integers(0, 2**31 - 1)),
            experiment_id=f"e{i:02d}",
        )
        sim = simulate(spec, inputs, seed=int(rng.integers(0, 2**31 - 1)), experiment_id=f"e{i:02d}")
        datasets.append(sim.dataset)
    return spec, datasets


def diverging_corpus(long_scale: float, seed: int = 0) -> list[TimeSeriesDataset]:
    """Three 120-row experiments of an explosive channel (y' = 1.05 y + u)
    and one 20,000-row experiment ``long`` of a stable one (y' = 0.5 y + u),
    whose inputs and first state have scale ``long_scale``.

    A fit that the short experiments dominate has a spectral radius near
    1.05, and its rollout of ``long`` overflows. At ``long_scale`` 50 the
    long experiment dominates every fit it is in, so only the folds that
    hold it out diverge; at 0.01 the short ones dominate every fit, and
    every fold diverges.
    """
    rng = np.random.default_rng(seed)

    def experiment(root, steps, scale, experiment_id):
        u = scale * rng.standard_normal(steps)
        y = np.empty(steps)
        y[0] = scale
        for t in range(steps - 1):
            y[t + 1] = root * y[t] + u[t]
        data = np.column_stack([u, y])
        return make_dataset(data, ["u", "y"], ["input", "observable"], experiment_id=experiment_id)

    short = [experiment(1.05, 120, 1.0, f"s{i}") for i in range(3)]
    return [*short, experiment(0.5, 20_000, long_scale, "long")]


def parseval_gap(values: np.ndarray, magnitude: np.ndarray) -> float:
    """Relative mismatch between two-sided squared amplitudes and mean square."""
    values = np.asarray(values, dtype=float)
    centered = values - values.mean()
    mean_square = float(np.mean(centered**2))
    two_sided = magnitude.copy() ** 2
    weights = np.full(magnitude.size, 2.0)
    weights[0] = 1.0
    if values.size % 2 == 0:
        weights[-1] = 1.0
    total = float(np.sum(weights * two_sided))
    scale = max(mean_square, np.finfo(float).tiny)
    return abs(total - mean_square) / scale


def matrix_rank(features: np.ndarray, tolerance: float | None = None) -> int:
    """Numerical rank: singular values above ``tolerance`` times the largest.

    Default tolerance is machine epsilon times the larger matrix dimension,
    the usual pseudoinverse cutoff. The n-row oracle for the rank that
    ``dedsid.vif.select_features`` reads off its R factor.
    """
    features = np.asarray(features, dtype=float)
    if features.size == 0:
        return 0
    s = np.linalg.svd(features, compute_uv=False)
    if s[0] == 0.0:
        return 0
    if tolerance is None:
        tolerance = _EPS * max(features.shape)
    return int(np.count_nonzero(s > tolerance * s[0]))


def vif_single(features: np.ndarray, index: int) -> float:
    """VIF of one column against the rest; +inf for exact dependence.

    The n-row oracle for ``dedsid.vif.select_features``: the regression of
    the column on all the others, over every row. Columns are expected
    zero-mean (standardized); the regression carries no intercept. The solve
    goes through the SVD pseudoinverse (lstsq), never the normal equations.
    """
    features = np.asarray(features, dtype=float)
    n, k = features.shape
    if k < 2:
        raise ValueError("vif_single needs at least two columns")
    if not 0 <= index < k:
        raise IndexError(f"column index {index} out of range for {k} columns")
    y = features[:, index]
    others = np.delete(features, index, axis=1)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0.0:
        return float("inf")
    coef, *_ = np.linalg.lstsq(others, y, rcond=None)
    ssr = float(np.sum((y - others @ coef) ** 2))
    if ssr <= _EPS * sst:
        return float("inf")
    return sst / ssr


def select_on_rows(features, names, **thresholds):
    """``dedsid.vif.select_features`` on an n x k feature matrix: its columns
    centered, as the factor API expects, then reduced by one n-row QR."""
    features = np.asarray(features, dtype=float)
    centered = features - features.mean(axis=0)
    return select_features(np.linalg.qr(centered, mode="r"), len(features), names, **thresholds)


def pooled_screen(datasets, inputs, config=VifConfig()):
    """The screen as a walk over the rows, for ``dedsid.vif.screen_inputs``.

    Every experiment's inputs are concatenated; a column equal to its first
    value in every row is constant; the others are standardized over the
    rows and reduced by one n-row QR. Returns the constant names and the
    ``select_features`` report.
    """
    pooled = np.concatenate([ds.matrix_for(inputs) for ds in datasets])
    is_constant = np.all(pooled == pooled[:1], axis=0)
    constant = [name for name, c in zip(inputs, is_constant) if c]
    candidates = [name for name, c in zip(inputs, is_constant) if not c]
    values = pooled[:, ~is_constant]
    z = standardize(standardizer_from_matrix(values, candidates), values)
    report = select_on_rows(z, candidates, accept_below=config.accept_below)
    return constant, report


def pulse_spectra_per_pulse(series, segments, sample_rate_hz: float) -> dict:
    """Bucket-averaged pulse spectra pooled over every series, one rfft per pulse.

    The per-pulse oracle for ``dedsid.spectral.pulse_spectra``, which pools
    the series and transforms each bucket's pulses in one call. Pulses are
    taken series by series in time order; short ones are skipped.
    """
    grouped: dict[int, list[np.ndarray]] = {}
    for values, rows in zip(series, segments):
        for start, end in rows:
            if end - start < MIN_SEGMENT_SAMPLES:
                continue
            pulse = values[start:end]
            centered = pulse - pulse.mean()
            grouped.setdefault(int(end - start), []).append(
                np.abs(np.fft.rfft(centered)) / pulse.size
            )
    return {
        count: PulseSpectrum(
            sample_count=count,
            length_s=count / sample_rate_hz,
            sample_rate_hz=sample_rate_hz,
            frequencies_hz=np.fft.rfftfreq(count, d=1.0 / sample_rate_hz),
            magnitude=np.mean(spectra, axis=0),
            pulses_averaged=len(spectra),
        )
        for count, spectra in sorted(grouped.items())
    }


def lpocv(datasets, config: FitConfig, splits):
    """``run_lpocv`` on the snapshots of ``datasets`` over ``config``'s channels."""
    snapshots = dmdc.build_snapshots(datasets, config.inputs, config.observables)
    return run_lpocv(datasets, config, splits, snapshots)


def fit_on_datasets(datasets, config: FitConfig) -> dmdc.StateSpaceModel:
    """``dmdc.fit`` on every pair of ``datasets``, as ``config`` asks."""
    snapshots = dmdc.build_snapshots(datasets, config.inputs, config.observables)
    return dmdc.fit(
        snapshots, config.svd_rank, config.standardize_inputs, config.standardize_observables
    )


@dataclass(frozen=True)
class ArraySnapshots(dmdc.SnapshotSet):
    """A snapshot set of one segment of pairs given as columns, which it keeps.

    ``y_next[:, t]`` follows ``y_cur[:, t]`` under ``u_cur[:, t]``; the pair
    arrays ride along for oracles that need the stacked snapshot matrix.
    """

    y_cur: np.ndarray = None
    u_cur: np.ndarray = None
    y_next: np.ndarray = None

    @classmethod
    def from_arrays(
        cls, y_cur, y_next, u_cur, observable_names, input_names, sample_rate_hz
    ) -> "ArraySnapshots":
        q, n = y_cur.shape
        if y_next.shape != (q, n) or u_cur.shape[1] != n:
            raise DimensionMismatch("pair arrays differ in shape")
        columns = list(range(q + u_cur.shape[0]))
        factor, shift, last = dmdc._summarize(
            np.vstack([y_cur, u_cur]).T, np.vstack([y_next, u_cur]).T, columns, q
        )
        return cls(
            experiment_ids=("arrays",),
            factors=factor[None],
            shifts=shift[None],
            pair_counts=np.array([n]),
            last_rows=last[None],
            observable_names=tuple(observable_names),
            input_names=tuple(input_names),
            sample_rate_hz=sample_rate_hz,
            y_cur=y_cur,
            u_cur=u_cur,
            y_next=y_next,
        )


def standardizer_from_matrix(values: np.ndarray, channels) -> StandardizationParams:
    """Population mean/std per column of ``values``, taken over the rows:
    the oracle for the standardizers merged from moments."""
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    m2 = ((values - mean) ** 2).sum(axis=0)
    return standardizer_from_moments(channels, len(values), mean, m2)


def standardize(params: StandardizationParams, values: np.ndarray) -> np.ndarray:
    """(x - mean) / scale of columns aligned with ``params.channels``."""
    return (np.asarray(values, dtype=float) - params.mean) / params.scale


def unstandardize(params: StandardizationParams, values: np.ndarray) -> np.ndarray:
    """The inverse of ``standardize``."""
    return np.asarray(values, dtype=float) * params.scale + params.mean


def fit_standardizer_pooled(datasets, channels):
    """Shift/scale over the rows of every dataset, concatenated: the oracle
    for the standardizers ``dmdc.fit`` merges from per-experiment moments."""
    stacked = np.concatenate([ds.matrix_for(channels) for ds in datasets], axis=0)
    return standardizer_from_matrix(stacked, channels)


def row_fit_oracle(
    datasets,
    inputs,
    observables,
    standardize_inputs=False,
    standardize_observables=False,
    rank=None,
):
    """The fit as a walk over the rows, for ``dmdc.fit`` on per-experiment factors.

    Standardizers come from the concatenated rows, the pairs are standardized
    copies stacked into one snapshot matrix, and A and B come from its
    economy SVD with ``fit``'s rank cutoff and errors. Returns
    ``A, B, rank, numerical rank, singular values, input standardizer,
    observable standardizer``.
    """
    in_std = fit_standardizer_pooled(datasets, inputs) if standardize_inputs else None
    obs_std = fit_standardizer_pooled(datasets, observables) if standardize_observables else None
    obs = [ds.matrix_for(observables) for ds in datasets]
    inp = [ds.matrix_for(inputs) for ds in datasets]
    if obs_std is not None:
        obs = [standardize(obs_std, o) for o in obs]
    if in_std is not None:
        inp = [standardize(in_std, u) for u in inp]
    omega = np.concatenate([np.hstack([o[:-1], u[:-1]]) for o, u in zip(obs, inp)]).T
    y_next = np.concatenate([o[1:] for o in obs]).T
    q, (k, n) = len(observables), omega.shape
    if n < k:
        raise InsufficientPairs(n, k)
    eta, s, zeta_t = np.linalg.svd(omega, full_matrices=False)
    numerical_rank = int(np.count_nonzero(s > _EPS * max(k, n) * s[0])) if s[0] else 0
    r = numerical_rank if rank is None else min(rank, numerical_rank)
    if r < 1:
        raise InsufficientPairs(n, k)
    proj = (y_next @ zeta_t[:r].T) / s[:r]
    return proj @ eta[:q, :r].T, proj @ eta[q:, :r].T, r, numerical_rank, s, in_std, obs_std


def summarize_chunked(current, following, columns, q):
    """``dmdc._summarize`` as a gather of 32,768-row chunks: the bit-identity
    oracle for the pass that writes each QR block straight from the rows.

    Each chunk's selected columns are copied, shifted in place, and copied
    again transposed into the QR block; the shift comes from the first chunk.
    """
    n, k = len(current), len(columns)
    block_rows, chunk_rows = 2048, 32768
    with np.errstate(invalid="ignore"):
        work = np.empty((1 + k + q, 1 + k + q + min(n, block_rows)))
        top = 0
        for start in range(0, n, chunk_rows):
            now = current[start : start + chunk_rows].take(columns, axis=1)
            then = following[start : start + chunk_rows].take(columns[:q], axis=1)
            if start == 0:
                shift = now[0] + (now - now[0]).mean(axis=0)
            now -= shift
            then -= shift[:q]
            for pos in range(0, len(now), block_rows):
                take = min(block_rows, len(now) - pos)
                block = work[:, : top + take]
                block[0, top:] = 1.0
                block[1 : 1 + k, top:] = now[pos : pos + take].T
                block[1 + k :, top:] = then[pos : pos + take].T
                r_factor = np.linalg.qr(block.T, mode="r")
                top = len(r_factor)
                work[:, :top] = r_factor.T
        factor = np.zeros((1 + k + q, 1 + k + q))
        factor[:top] = r_factor
    return factor, shift, following[-1].take(columns)


def linear_recurrence_padded(a: np.ndarray, drive: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """``dmdc.linear_recurrence`` as one Toeplitz matmul over a zero-padded
    copy of the whole drive, plus one output-sized chunk-entry term: the
    bit-identity oracle for the kernel that reads the drive block by block."""
    drive = np.asarray(drive, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if drive.ndim == 2:
        return linear_recurrence_padded(a, drive[None], y0[None])[0]
    batch, steps, q = drive.shape
    L = max(1, min(dmdc._SCAN_CHUNK, 256 // max(q, 1), steps))

    powers = np.empty((L + 1, q, q))
    powers[0] = np.eye(q)
    powers[1] = a
    have = 1
    while have < L:
        k = min(have, L - have)
        powers[have + 1 : have + k + 1] = powers[1 : k + 1] @ powers[have]
        have += k
    bad = ~np.isfinite(powers).all(axis=(1, 2))
    if bad.any():
        L = max(1, int(np.argmax(bad)) - 1)
        powers = powers[: L + 1]
    if L == 1:
        out = np.empty_like(drive)
        state, a_t = y0, powers[1].T
        for t in range(steps):
            state = state @ a_t + drive[:, t]
            out[:, t] = state
        return out

    chunks = -(-steps // L)
    if chunks * L == steps:
        d = drive
    else:
        d = np.zeros((batch, chunks * L, q))
        d[:, :steps] = drive
    lag = np.arange(L)[None, :] - np.arange(L)[:, None]
    toeplitz = powers[np.maximum(lag, 0)].transpose(0, 1, 3, 2) * (lag >= 0)[:, :, None, None]
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(L * q, L * q)
    y = d.reshape(batch, chunks, L * q) @ toeplitz
    del d

    starts = np.empty((batch, chunks, q))
    starts[:, 0] = y0
    if chunks > 1:
        starts[:, 1:] = linear_recurrence_padded(powers[L], y[:, :-1, -q:], y0)
    y += starts @ powers[1:].transpose(2, 0, 1).reshape(q, L * q)
    return y.reshape(batch, chunks * L, q)[:, :steps]


def r2(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination over one vector; undefined (error) for
    constant actuals. The row oracle for LPOCV's metrics from sums."""
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size == 0 or actual.size != predicted.size:
        raise EmptySample("metric vectors" if actual.size == 0 else "length-matched vectors")
    sst = float(np.sum((actual - actual.mean()) ** 2))
    if sst == 0.0:
        raise ConstantActual()
    ssr = float(np.sum((actual - predicted) ** 2))
    return 1.0 - ssr / sst


def rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared error over one vector, the RMSE oracle beside ``r2``."""
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size == 0 or actual.size != predicted.size:
        raise EmptySample("metric vectors" if actual.size == 0 else "length-matched vectors")
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def impute_off_state_loop(ds, channel, sentinel, gate_channel):
    """Sentinel runs bridged one run at a time, walking every sample: the
    oracle for ``dedsid.dataset.impute_off_state``."""
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
    return with_column(ds, channel, x)


def with_column(ds: TimeSeriesDataset, name: str, values) -> TimeSeriesDataset:
    """``ds`` with channel ``name`` replaced by ``values``, on a copy of its data."""
    data = ds.data.copy()
    data[:, ds.index_of(name)] = values
    return ds.with_data(data)


@dataclass(frozen=True)
class _Segment:
    t0: float
    t1: float
    start: np.ndarray
    end: np.ndarray
    power: float
    feed_mm_min: float
    heading_deg: float
    distance0: float


def sample_per_segment(commands, sample_rate_hz: float) -> np.ndarray:
    """The sampled channels of a program, filled one segment at a time: the
    oracle for ``dedsid.gcode.program_to_timeseries``, which fills every
    sample from one segment table."""
    pos = np.zeros(3)
    power = 0.0
    feed = None
    heading = 0.0
    distance = 0.0
    t = 0.0
    segments: list[_Segment] = []
    for idx, cmd in enumerate(commands):
        if isinstance(cmd, SetPower):
            power = cmd.watts
        elif isinstance(cmd, Dwell):
            segments.append(
                _Segment(t, t + cmd.seconds, pos.copy(), pos.copy(), power, 0.0, heading, distance)
            )
            t += cmd.seconds
        elif isinstance(cmd, LinearMove):
            if cmd.feed_mm_min is not None:
                feed = cmd.feed_mm_min
            target = pos.copy()
            if cmd.x is not None:
                target[0] = cmd.x
            if cmd.y is not None:
                target[1] = cmd.y
            if cmd.z is not None:
                target[2] = cmd.z
            length = float(np.linalg.norm(target - pos))
            if length > 0.0:
                if feed is None or feed <= 0.0:
                    raise ZeroFeedMove(idx)
                if target[0] != pos[0] or target[1] != pos[1]:
                    heading = math.degrees(math.atan2(target[1] - pos[1], target[0] - pos[0]))
                duration = length / (feed / 60.0)
                segments.append(
                    _Segment(t, t + duration, pos.copy(), target, power, feed, heading, distance)
                )
                t += duration
                distance += length
            pos = target

    n = int(round(t * sample_rate_hz))
    data = np.zeros((n, 7))
    if n:
        times = (np.arange(n) + 1) / sample_rate_hz
        starts = np.asarray([s.t0 for s in segments])
        owner = np.searchsorted(starts, times, side="left") - 1
        owner = np.clip(owner, 0, len(segments) - 1)
        for k, seg in enumerate(segments):
            rows = np.nonzero(owner == k)[0]
            if rows.size == 0:
                continue
            local = np.clip(times[rows] - seg.t0, 0.0, seg.t1 - seg.t0)
            span = seg.t1 - seg.t0
            frac = local / span if span > 0 else np.zeros_like(local)
            seg_len = float(np.linalg.norm(seg.end - seg.start))
            data[rows, 0:3] = seg.start + np.outer(frac, seg.end - seg.start)
            data[rows, 3] = seg.power
            data[rows, 4] = seg.feed_mm_min
            data[rows, 5] = seg.heading_deg
            data[rows, 6] = seg.distance0 + frac * seg_len
    return data


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Earth-mover distance between two empirical samples of any sizes.

    The two samples are pooled and sorted once, stably, and the pooled order
    goes to the kernel ``dedsid.wasserstein.split_shift_report`` scores each
    split with: the integral of |F_a - F_b| from a running count of a's
    values over the gaps of the pooled order.
    """
    a = np.asarray(a, dtype=float).ravel()
    values = np.concatenate([a, np.asarray(b, dtype=float).ravel()])
    order = np.argsort(values, kind="stable")
    return _w1_partition(values[order], order < a.size)


def uniform_benchmark(samples: np.ndarray) -> float:
    """Distance from a sample to an equal-size even grid over its own range:
    mean |x_(i) - linspace(lo, hi, n)_i|, by the kernel that
    ``dedsid.wasserstein.split_shift_report`` uses."""
    return _uniform_w1(np.sort(np.asarray(samples, dtype=float).ravel()))


def load_plant(path: str | Path) -> PlantSpec:
    """The plant that ``dedsid.plant.save_plant`` wrote to ``path``."""
    try:
        return from_plain(PlantSpec, read_json_object(path))
    except (ValueError, DimensionMismatch) as exc:
        raise CorruptFile(str(path), f"missing or malformed field: {exc!r}") from None


def unit_variance_plant(
    spec: PlantSpec, inputs: TimeSeriesDataset, y0: np.ndarray | None = None
) -> PlantSpec:
    """Similarity-transform the plant so observables have unit variance.

    Simulates noise-free on the given inputs, measures per-observable
    population std s, and returns the equivalent plant (S^-1 A S, S^-1 B)
    whose trajectory is the original scaled channel-wise by 1/s.
    """
    clean = simulate(replace(spec, noise_sd=np.zeros(len(spec.observable_channels)),
                             dropout=None), inputs, y0=y0).clean_observables
    s = clean.std(axis=0)
    if np.any(s == 0):
        raise DimensionMismatch("cannot normalize a constant observable")
    s_inv = np.diag(1.0 / s)
    return replace(
        spec,
        A=s_inv @ spec.A @ np.diag(s),
        B=s_inv @ spec.B,
        noise_sd=spec.noise_sd / s,
    )


def simulate_stacking(
    spec: PlantSpec,
    inputs: TimeSeriesDataset,
    y0: np.ndarray | None = None,
    seed: int | None = None,
) -> SimulationResult:
    """``dedsid.plant.simulate`` as it was before it wrote the record in
    place: the observables copied, noised into a new array and stacked
    beside the inputs, and the inputs read through a fancy-index copy. The
    oracle for the bytes ``simulate`` writes."""
    u = inputs.data[:, [inputs.index_of(n) for n in spec.input_names]]
    m = u.shape[0]
    q = len(spec.observable_channels)
    y0 = np.zeros(q) if y0 is None else np.asarray(y0, dtype=float).ravel()
    clean = np.empty((m, q))
    if m:
        clean[0] = y0
        clean[1:] = dmdc.linear_recurrence(spec.A, u[:-1] @ spec.B.T, y0)

    rng = np.random.default_rng(seed)
    observed = clean.copy()
    if np.any(spec.noise_sd > 0):
        observed = observed + rng.normal(0.0, spec.noise_sd, size=(m, q))
    channels = inputs.channels + spec.observable_channels
    data = np.column_stack([inputs.data, observed]) if m else np.empty((0, len(channels)))
    if spec.dropout is not None:
        d = spec.dropout
        col = [c.name for c in channels].index(d.channel)
        hit = rng.random(m) < d.probability
        if d.gate_channel is not None:
            gate_col = [c.name for c in channels].index(d.gate_channel)
            hit &= data[:, gate_col] > 0
        data[hit, col] = d.sentinel
    ds = replace(inputs, channels=channels, data=data)
    return SimulationResult(dataset=ds, clean_observables=clean)


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, as tracemalloc counts them
    (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def throughput_us_per_point(points: int, seed: int = 0) -> tuple[float, float]:
    """Wall-clock microseconds per point of one fit (snapshot set-up included)
    and of one self-fed rollout over ``points`` samples.

    The plant is a seeded random stable one with 3 observables, 21 inputs and
    spectral radius 0.9, driven by white-noise inputs.
    """
    spec = random_stable_plant(3, 21, seed=seed, radius=0.9)
    inputs = gaussian_inputs(list(spec.input_names), points, 100.0, seed=seed + 1)
    ds = simulate(spec, inputs, seed=seed + 2).dataset

    t0 = time.perf_counter()
    model = dmdc.fit(
        dmdc.build_snapshots([ds], list(spec.input_names), list(spec.observable_names))
    )
    fit_s = time.perf_counter() - t0

    y0 = ds.matrix_for(spec.observable_names)[0]
    u = ds.matrix_for(spec.input_names)[:-1].T
    t0 = time.perf_counter()
    dmdc.rollout(model, y0, u)
    rollout_s = time.perf_counter() - t0
    return fit_s / points * 1e6, rollout_s / u.shape[1] * 1e6
