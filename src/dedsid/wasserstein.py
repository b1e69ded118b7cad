"""Distribution-shift diagnostics built on the 1-D Wasserstein distance.

The guiding question: is the test split farther from the training split than
either is from a featureless reference? The reference for each channel is an
evenly spaced grid over the channel's own range, i.e. "uniform noise with the
same bounds", so a small test-to-train distance relative to the uniform
distances reads as "splits share structure".

Each channel is sorted once, over every experiment, and the same argsort
gives each sorted value's experiment. A split is a boolean mask over the
experiments, and train and test partition the corpus, so each side's sorted
sample is the global order compressed by the mask. Test-to-train is the
integral of |F_test - F_train| over the gaps of the global order, with both
CDFs from one cumsum of the mask. Tied values are equal and a gap inside a
tie is 0, so the order within a tie changes no distance, and the sort need
not be stable. Against the uniform grid, both samples have n points and
W1 = mean |x_(i) - g_i|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstantChannel, DimensionMismatch, EmptySample
from .dataset import TimeSeriesDataset
from .validation import ci95_halfwidth

PAIR_TRAIN_UNIFORM = "train_to_uniform"
PAIR_TEST_UNIFORM = "test_to_uniform"
PAIR_TEST_TRAIN = "test_to_train"
PAIR_LABELS = (PAIR_TRAIN_UNIFORM, PAIR_TEST_UNIFORM, PAIR_TEST_TRAIN)


def _w1_partition(values: np.ndarray, in_a: np.ndarray) -> float:
    """W1 between the two parts of the ascending ``values`` that ``in_a``
    marks as a and leaves as b: the integral of |F_a - F_b|, each CDF from a
    running count of its part over the gaps between consecutive values."""
    n_a = np.count_nonzero(in_a)
    n_b = in_a.size - n_a
    if n_a == 0 or n_b == 0:
        raise EmptySample()
    count_a = np.cumsum(in_a[:-1])
    count_b = np.arange(1, values.size) - count_a
    return float(np.sum(np.abs(count_a / n_a - count_b / n_b) * np.diff(values)))


def _uniform_w1(values: np.ndarray) -> float:
    """W1 between the ascending ``values`` and an equal-size even grid over
    their range: mean |x_(i) - g_i|."""
    if not values.size:
        raise EmptySample()
    lo, hi = float(values[0]), float(values[-1])
    if lo == hi:
        raise ConstantChannel(f"range [{lo}, {hi}] is degenerate")
    return float(np.mean(np.abs(values - np.linspace(lo, hi, values.size))))


@dataclass(frozen=True)
class WassersteinResult:
    pair_label: str
    channel: str
    mean_distance: float
    ci95_halfwidth: float
    repeats: int
    distances: tuple[float, ...]


def split_shift_report(
    datasets: Sequence[TimeSeriesDataset], splits: np.ndarray, channels: Sequence[str]
) -> list[WassersteinResult]:
    """Aggregate the distances of resampled splits of ``datasets``.

    ``splits`` is a (repeats, experiments) boolean array; each row marks one
    split's test experiments, the rest are its training side. Returns three
    results per channel (train/uniform, test/uniform, test/train) with the
    mean distance and a 1.96*sd/sqrt(repeats) half-width. Distances are taken
    on raw (unstandardized) values so they stay in physical units.
    """
    splits = np.asarray(splits, dtype=bool)
    if splits.ndim != 2 or splits.shape[1] != len(datasets):
        raise DimensionMismatch(f"splits of shape {splits.shape} for {len(datasets)} experiments")
    if not splits.size:
        raise EmptySample("splits")
    experiment = np.repeat(np.arange(len(datasets)), [ds.row_count for ds in datasets])
    results = []
    for ch in channels:
        values = np.concatenate([ds.column(ch) for ds in datasets])
        order = np.argsort(values)
        values = values[order]
        per_split = [
            (_uniform_w1(values[~m]), _uniform_w1(values[m]), _w1_partition(values, m))
            for m in splits[:, experiment[order]]
        ]
        for label, vals in zip(PAIR_LABELS, np.array(per_split).T):
            results.append(
                WassersteinResult(
                    pair_label=label,
                    channel=ch,
                    mean_distance=float(vals.mean()),
                    ci95_halfwidth=ci95_halfwidth(vals),
                    repeats=len(splits),
                    distances=tuple(float(v) for v in vals),
                )
            )
    return results
