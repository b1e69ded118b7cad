"""Shared builders for the test suite."""

from __future__ import annotations

import math
import time
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from dedsid import dmdc
from dedsid.artifacts import read_json_object
from dedsid.config import FitConfig
from dedsid.dataset import ChannelSpec, TimeSeriesDataset, standardizer_from_matrix
from dedsid.errors import (
    AllSentinel,
    ConstantActual,
    CorruptFile,
    DimensionMismatch,
    EmptySample,
    InsufficientPairs,
    RankDeficiencyWarning,
)
from dedsid.plant import (
    DropoutSpec,
    PlantSpec,
    SimulationResult,
    gaussian_inputs,
    random_stable_plant,
    simulate,
)
from dedsid.spectral import MIN_SEGMENT_SAMPLES, PulseSpectrum
from dedsid.wasserstein import _sorted_sample, _uniform_w1_sorted, _w1_sorted

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
    r_squared = 1.0 - ssr / sst
    if r_squared >= 1.0 - _EPS:
        return float("inf")
    return 1.0 / (1.0 - r_squared)


def pulse_spectra_per_pulse(series, segments, sample_rate_hz: float) -> dict:
    """Bucket-averaged pulse spectra pooled over every series, one rfft per pulse.

    The per-pulse oracle for ``dedsid.spectral.pulse_spectra``, which pools
    the series and transforms each bucket's pulses in one call. Pulses are
    taken series by series in time order; short ones are skipped silently
    here, and the kernel's warning is tested on its own.
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
        factor, shift, mean, m2 = dmdc._summarize(
            np.vstack([y_cur, u_cur]).T, np.vstack([y_next, u_cur]).T, columns, q
        )
        return cls(
            experiment_ids=("arrays",),
            factors=factor[None],
            shifts=shift[None],
            pair_counts=np.array([n]),
            means=mean[None],
            m2=m2[None],
            observable_names=tuple(observable_names),
            input_names=tuple(input_names),
            sample_rate_hz=sample_rate_hz,
            y_cur=y_cur,
            u_cur=u_cur,
            y_next=y_next,
        )


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
    economy SVD with ``fit``'s rank cutoff, warning and errors. Returns
    ``A, B, rank, singular values, input standardizer, observable
    standardizer``.
    """
    in_std = fit_standardizer_pooled(datasets, inputs) if standardize_inputs else None
    obs_std = fit_standardizer_pooled(datasets, observables) if standardize_observables else None
    obs = [ds.matrix_for(observables) for ds in datasets]
    inp = [ds.matrix_for(inputs) for ds in datasets]
    if obs_std is not None:
        obs = [obs_std.transform_matrix(o) for o in obs]
    if in_std is not None:
        inp = [in_std.transform_matrix(u) for u in inp]
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
    if numerical_rank < k:
        warnings.warn(
            f"snapshot matrix rank {numerical_rank} < {k}; "
            "solution is minimum-norm on a deficient span",
            RankDeficiencyWarning,
        )
    proj = (y_next @ zeta_t[:r].T) / s[:r]
    return proj @ eta[:q, :r].T, proj @ eta[q:, :r].T, r, s, in_std, obs_std


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
        mean = shift + factor[0, 1 : 1 + k] / factor[0, 0]
        m2 = np.einsum("ij,ij->j", factor[1:, 1 : 1 + k], factor[1:, 1 : 1 + k])
        last = following[-1].take(columns)
        delta = last - mean
        mean = mean + delta / (n + 1)
        m2 = m2 + delta * (last - mean)
    return factor, shift, mean, m2


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
    return ds.with_column(channel, x)


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Earth-mover distance between two empirical samples.

    Both samples are sorted once; equal sizes then take the quantile form
    mean |a_(i) - b_(i)|, unequal sizes the integral of |F_a - F_b| over the
    merged support, which is the same quantity for piecewise-constant
    empirical CDFs; sample sizes need not match. Calls the kernel that
    ``dedsid.wasserstein.split_distances`` uses.
    """
    return _w1_sorted(_sorted_sample(a), _sorted_sample(b))


def uniform_benchmark(samples: np.ndarray) -> float:
    """Distance from a sample to an equal-size even grid over its own range.

    With both samples of size n this is mean |x_(i) - linspace(lo, hi, n)_i|.
    """
    return _uniform_w1_sorted(_sorted_sample(samples))


def load_plant(path: str | Path) -> PlantSpec:
    """The plant that ``dedsid.plant.save_plant`` wrote to ``path``."""
    d = read_json_object(path)
    try:
        return PlantSpec(
            A=d["A"],
            B=d["B"],
            input_channels=tuple(ChannelSpec(**c) for c in d["input_channels"]),
            observable_channels=tuple(ChannelSpec(**c) for c in d["observable_channels"]),
            noise_sd=d["noise_sd"],
            dropout=DropoutSpec(**d["dropout"]) if d.get("dropout") else None,
        )
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
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
