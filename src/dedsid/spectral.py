"""Pulse-resolved spectral signatures for model validation.

The laser fires in discrete pulses; each pulse excites a transient in the
observables. Bucketing mean-removed amplitude spectra by pulse length and
arranging them into a (pulse length x frequency) surface gives a fingerprint
of the noise/transient structure. A surrogate that reproduces the measured
fingerprint on its own rollouts has captured more than pointwise accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import TimeSeriesDataset
from .errors import (
    GridMismatch,
    InsufficientPulseLengthDiversity,
    SegmentSkippedWarning,
)

MIN_SEGMENT_SAMPLES = 4


@dataclass(frozen=True)
class PulseSegment:
    """Maximal run of commanded power > 0; end_index is exclusive."""

    start_index: int
    end_index: int
    length_s: float
    power_level: float

    @property
    def sample_count(self) -> int:
        return self.end_index - self.start_index


def segment_pulses(power: np.ndarray, sample_rate_hz: float) -> list[PulseSegment]:
    """Find maximal runs of positive commanded power."""
    power = np.asarray(power, dtype=float).ravel()
    on = power > 0
    if not on.any():
        return []
    padded = np.concatenate([[False], on, [False]])
    edges = np.diff(padded.astype(int))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]
    return [
        PulseSegment(
            start_index=int(s),
            end_index=int(e),
            length_s=(int(e) - int(s)) / sample_rate_hz,
            power_level=float(power[s:e].mean()),
        )
        for s, e in zip(starts, ends)
    ]


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
    ds: TimeSeriesDataset,
    observable: str,
    segments: Sequence[PulseSegment],
) -> dict[int, PulseSpectrum]:
    """Bucket segments by exact sample count and average their spectra.

    Buckets are exact because segments with the same count share a frequency
    axis; mixing nearby lengths would smear bins. Segments shorter than
    MIN_SEGMENT_SAMPLES carry no usable spectrum and are skipped with a
    warning. Each bucket's pulses are stacked as rows, in segment order, and
    take one ``amplitude_spectrum`` call.
    """
    col = ds.column(observable)
    starts: dict[int, list[int]] = {}
    for seg in segments:
        if seg.sample_count < MIN_SEGMENT_SAMPLES:
            warnings.warn(
                f"pulse at {seg.start_index} has {seg.sample_count} samples; skipped",
                SegmentSkippedWarning,
                stacklevel=2,
            )
            continue
        starts.setdefault(seg.sample_count, []).append(seg.start_index)
    out = {}
    for count, first in sorted(starts.items()):
        pulses = col[np.asarray(first)[:, None] + np.arange(count)]
        out[count] = PulseSpectrum(
            sample_count=count,
            length_s=count / ds.sample_rate_hz,
            sample_rate_hz=ds.sample_rate_hz,
            frequencies_hz=np.fft.rfftfreq(count, d=1.0 / ds.sample_rate_hz),
            magnitude=np.mean(amplitude_spectrum(pulses), axis=0),
            pulses_averaged=len(first),
        )
    return out


def merge_spectra(maps: Sequence[Mapping[int, PulseSpectrum]]) -> dict[int, PulseSpectrum]:
    """Combine per-experiment buckets, weighting by pulses averaged."""
    merged: dict[int, PulseSpectrum] = {}
    for m in maps:
        for count, spec in m.items():
            if count not in merged:
                merged[count] = spec
                continue
            prev = merged[count]
            total = prev.pulses_averaged + spec.pulses_averaged
            magnitude = (
                prev.magnitude * prev.pulses_averaged + spec.magnitude * spec.pulses_averaged
            ) / total
            merged[count] = PulseSpectrum(
                sample_count=count,
                length_s=prev.length_s,
                sample_rate_hz=prev.sample_rate_hz,
                frequencies_hz=prev.frequencies_hz,
                magnitude=magnitude,
                pulses_averaged=total,
            )
    return dict(sorted(merged.items()))


def collect_pulse_spectra(
    datasets: Sequence[TimeSeriesDataset],
    observable: str,
    power_channel: str,
    values_override: Mapping[str, np.ndarray] | None = None,
) -> dict[int, PulseSpectrum]:
    """Segment every dataset on its power channel and merge the buckets.

    ``values_override`` substitutes a replacement series per experiment id
    (e.g. model predictions) while keeping the measured pulse segmentation.
    """
    maps = []
    for ds in datasets:
        segs = segment_pulses(ds.column(power_channel), ds.sample_rate_hz)
        if values_override is not None and ds.experiment_id in values_override:
            ds = ds.with_column(observable, values_override[ds.experiment_id])
        maps.append(pulse_spectra(ds, observable, segs))
    return merge_spectra(maps)


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
    grid: tuple[int, int] = (100, 100),
    cap_hz: float = 1.0,
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
