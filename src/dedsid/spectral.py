"""Pulse-resolved spectral signatures for model validation.

The laser fires in discrete pulses; each pulse excites a transient in the
observables. Bucketing mean-removed amplitude spectra by pulse length and
arranging them into a (pulse length x frequency) surface gives a fingerprint
of the noise/transient structure. A surrogate that reproduces the measured
fingerprint on its own rollouts has captured more than pointwise accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import SpectrogramConfig
from .dataset import TimeSeriesDataset
from .errors import GridMismatch, InsufficientPulseLengthDiversity, SchemaMismatch

MIN_SEGMENT_SAMPLES = 4


def segment_pulses(power: np.ndarray) -> np.ndarray:
    """The maximal runs of positive commanded power, as ``(n, 2)`` rows of
    ``[start, end)`` sample indices in time order."""
    on = np.asarray(power, dtype=float).ravel() > 0
    # Each change of the on-mask, padded off at both ends, starts or ends a run.
    return np.flatnonzero(np.diff(on, prepend=False, append=False)).reshape(-1, 2)


@dataclass(frozen=True)
class PulseSpectrum:
    """Average amplitude spectrum of all pulses sharing one sample count."""

    sample_count: int
    length_s: float
    sample_rate_hz: float
    frequencies_hz: np.ndarray
    magnitude: np.ndarray
    pulses_averaged: int


def amplitude_spectrum(values: np.ndarray) -> np.ndarray:
    """|rfft| / n of the mean-removed signal, along the last axis.

    The 1/n normalization makes bins read as amplitudes: a fixed-energy
    transient spread over a longer window yields proportionally lower bins,
    and Parseval takes the form sum of squared (two-sided) amplitudes equals
    the mean squared signal. A 2-D array holds one signal per row.
    """
    values = np.asarray(values, dtype=float)
    centered = values - values.mean(axis=-1, keepdims=True)
    return np.abs(np.fft.rfft(centered)) / values.shape[-1]


def pulse_spectra(
    series: Sequence[np.ndarray], segments: Sequence[np.ndarray], sample_rate_hz: float
) -> dict[int, PulseSpectrum]:
    """Pool the pulses of every series by exact sample count and average their spectra.

    ``segments[i]`` holds the ``[start, end)`` rows of ``series[i]``'s
    pulses. Buckets are exact because pulses with the same count share a
    frequency axis; mixing nearby lengths would smear bins. Pulses shorter
    than MIN_SEGMENT_SAMPLES carry no usable spectrum and are skipped. Each
    bucket's pulses are stacked as rows, series by series in time order, and
    take one ``amplitude_spectrum`` call.
    """
    values = np.concatenate(series)
    offsets = np.cumsum([0, *map(len, series)])
    rows = np.concatenate([seg + off for seg, off in zip(segments, offsets)])
    counts = rows[:, 1] - rows[:, 0]
    out = {}
    # The distinct lengths, ascending; np.unique would import numpy.ma on first use.
    for count in np.flatnonzero(np.bincount(counts[counts >= MIN_SEGMENT_SAMPLES])).tolist():
        starts = rows[counts == count, 0]
        pulses = values[starts[:, None] + np.arange(count)]
        out[count] = PulseSpectrum(
            sample_count=count,
            length_s=count / sample_rate_hz,
            sample_rate_hz=sample_rate_hz,
            frequencies_hz=np.fft.rfftfreq(count, d=1.0 / sample_rate_hz),
            magnitude=np.mean(amplitude_spectrum(pulses), axis=0),
            pulses_averaged=len(starts),
        )
    return out


def collect_pulse_spectra(
    datasets: Sequence[TimeSeriesDataset],
    power_channel: str,
    series: Sequence[np.ndarray],
) -> tuple[dict[int, PulseSpectrum], int]:
    """The pulse spectra of ``series``, one array per dataset (a measured
    column or a model's predictions), cut where each dataset's power channel
    is on, and the number of pulses skipped as too short. Pulses pool by
    sample count, so every dataset must share one sample rate; a dataset at
    another rate is ``SchemaMismatch``."""
    if not datasets:
        return {}, 0
    ref = datasets[0]
    for ds in datasets[1:]:
        if ds.sample_rate_hz != ref.sample_rate_hz:
            raise SchemaMismatch(
                f"{ds.experiment_id!r} sample rate differs from {ref.experiment_id!r}"
            )
    segments = [segment_pulses(ds.column(power_channel)) for ds in datasets]
    skipped = sum(int(np.count_nonzero(np.diff(s) < MIN_SEGMENT_SAMPLES)) for s in segments)
    return pulse_spectra(series, segments, ref.sample_rate_hz), skipped


@dataclass(frozen=True)
class Spectrogram:
    pulse_length_axis_s: np.ndarray
    frequency_axis_hz: np.ndarray
    intensity: np.ndarray  # rows follow pulse length, cols follow frequency
    nyquist_hz: float
    display_cap_hz: float

    def to_csv_rows(self) -> np.ndarray:
        """Long-form (pulse_length_s, frequency_hz, intensity) triples."""
        ll, ff = np.meshgrid(self.pulse_length_axis_s, self.frequency_axis_hz, indexing="ij")
        return np.column_stack([ll.ravel(), ff.ravel(), self.intensity.ravel()])


def build_spectrogram(
    spectra: Mapping[int, PulseSpectrum],
    grid: tuple[int, int] = (SpectrogramConfig.rows, SpectrogramConfig.cols),
    cap_hz: float = SpectrogramConfig.cap_hz,
) -> Spectrogram:
    """Bilinearly interpolate ragged per-length spectra onto a uniform grid.

    The frequency axis spans [0, cap_hz] (clamped to Nyquist); the pulse
    length axis spans the observed bucket range. Intensity is normalized so
    the global maximum is 1, which makes surfaces comparable across signals
    with different physical scales.
    """
    buckets = sorted(spectra.values(), key=lambda s: s.sample_count)
    if len(buckets) < 2:
        raise InsufficientPulseLengthDiversity(len(buckets))
    nyquist = buckets[0].sample_rate_hz / 2.0
    cap = min(float(cap_hz), nyquist)
    n_len, n_freq = grid
    length_axis = np.linspace(buckets[0].length_s, buckets[-1].length_s, n_len)
    freq_axis = np.linspace(0.0, cap, n_freq)

    # Stage 1: common frequency axis per bucket; stage 2: across lengths.
    per_bucket = np.stack(
        [np.interp(freq_axis, b.frequencies_hz, b.magnitude) for b in buckets]
    )
    lengths = np.asarray([b.length_s for b in buckets])
    intensity = np.empty((n_len, n_freq))
    for j in range(n_freq):
        intensity[:, j] = np.interp(length_axis, lengths, per_bucket[:, j])

    peak = intensity.max()
    if peak > 0:
        intensity = intensity / peak
    return Spectrogram(
        pulse_length_axis_s=length_axis,
        frequency_axis_hz=freq_axis,
        intensity=intensity,
        nyquist_hz=nyquist,
        display_cap_hz=cap,
    )


def compare_spectrograms(a: Spectrogram, b: Spectrogram) -> float:
    """Normalized cross-correlation of two surfaces on identical grids.

    Returns a value in [-1, 1]; 1 means proportional surfaces. All-zero
    surfaces have no direction to correlate, so the score is defined as 0.
    """
    if a.intensity.shape != b.intensity.shape:
        raise GridMismatch("intensity shapes differ")
    if not (
        np.allclose(a.pulse_length_axis_s, b.pulse_length_axis_s)
        and np.allclose(a.frequency_axis_hz, b.frequency_axis_hz)
    ):
        raise GridMismatch("axes differ")
    x = a.intensity.ravel()
    y = b.intensity.ravel()
    nx = float(np.sqrt(np.sum(x * x)))
    ny = float(np.sqrt(np.sum(y * y)))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))
