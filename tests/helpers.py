"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dedsid.dataset import ChannelSpec, TimeSeriesDataset
from dedsid.plant import pulse_train_inputs, random_stable_plant, simulate
from dedsid.spectral import MIN_SEGMENT_SAMPLES, PulseSpectrum

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


def pulse_spectra_per_pulse(ds, observable: str, segments) -> dict:
    """Bucket-averaged pulse spectra, one rfft per pulse.

    The per-pulse oracle for ``dedsid.spectral.pulse_spectra``, which stacks
    each bucket's pulses and transforms them in one call. Short segments are
    skipped silently here; the kernel's warnings are tested on their own.
    """
    col = ds.column(observable)
    grouped: dict[int, list[np.ndarray]] = {}
    for seg in segments:
        if seg.sample_count < MIN_SEGMENT_SAMPLES:
            continue
        values = col[seg.start_index : seg.end_index]
        centered = values - values.mean()
        grouped.setdefault(seg.sample_count, []).append(
            np.abs(np.fft.rfft(centered)) / values.size
        )
    return {
        count: PulseSpectrum(
            sample_count=count,
            length_s=count / ds.sample_rate_hz,
            sample_rate_hz=ds.sample_rate_hz,
            frequencies_hz=np.fft.rfftfreq(count, d=1.0 / ds.sample_rate_hz),
            magnitude=np.mean(spectra, axis=0),
            pulses_averaged=len(spectra),
        )
        for count, spectra in sorted(grouped.items())
    }
