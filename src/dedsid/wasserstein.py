"""Distribution-shift diagnostics built on the 1-D Wasserstein distance.

The guiding question: is the test split farther from the training split than
either is from a featureless reference? The reference for each channel is an
evenly spaced grid over the channel's own range, i.e. "uniform noise with the
same bounds", so a small test-to-train distance relative to the uniform
distances reads as "splits share structure".

Every distance goes through one kernel on sorted samples, so each pooled
sample is sorted once per split and channel. Two samples of equal size n
(always the case against the uniform grid) pair their order statistics,
W1 = mean |x_(i) - y_(i)|, which is exactly the CDF integral for n points
each. Unequal sizes merge the two sorted runs with a stable argsort and
integrate |F_a - F_b| from running counts, with no further sort or search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstantChannel, EmptySample
from .dataset import TimeSeriesDataset

PAIR_TRAIN_UNIFORM = "train_to_uniform"
PAIR_TEST_UNIFORM = "test_to_uniform"
PAIR_TEST_TRAIN = "test_to_train"
PAIR_LABELS = (PAIR_TRAIN_UNIFORM, PAIR_TEST_UNIFORM, PAIR_TEST_TRAIN)


def _sorted_sample(values) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float).ravel())
    if values.size == 0:
        raise EmptySample()
    return values


def _w1_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """W1 between two non-empty, ascending samples.

    Equal sizes pair order statistics: mean |a_(i) - b_(i)|. Otherwise the
    integral of |F_a - F_b| over the merged support: a stable argsort of the
    two sorted runs merges them, and a running count of a's elements gives
    both CDFs on each gap between consecutive merged values.
    """
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    deltas = np.diff(merged[order])
    count_a = np.cumsum(order[:-1] < a.size)
    count_b = np.arange(1, merged.size) - count_a
    return float(np.sum(np.abs(count_a / a.size - count_b / b.size) * deltas))


def _uniform_w1_sorted(samples: np.ndarray) -> float:
    lo, hi = float(samples[0]), float(samples[-1])
    if lo == hi:
        raise ConstantChannel(f"range [{lo}, {hi}] is degenerate")
    return _w1_sorted(samples, np.linspace(lo, hi, samples.size))


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Earth-mover distance between two empirical samples.

    Both samples are sorted once; equal sizes then take the quantile form
    mean |a_(i) - b_(i)|, unequal sizes the integral of |F_a - F_b| over the
    merged support, which is the same quantity for piecewise-constant
    empirical CDFs; sample sizes need not match.
    """
    return _w1_sorted(_sorted_sample(a), _sorted_sample(b))


def uniform_benchmark(samples: np.ndarray) -> float:
    """Distance from a sample to an equal-size even grid over its own range.

    With both samples of size n this is mean |x_(i) - linspace(lo, hi, n)_i|.
    """
    return _uniform_w1_sorted(_sorted_sample(samples))


@dataclass(frozen=True)
class WassersteinResult:
    pair_label: str
    channel: str
    mean_distance: float
    ci95_halfwidth: float
    repeats: int
    distances: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "pair_label": self.pair_label,
            "channel": self.channel,
            "mean_distance": self.mean_distance,
            "ci95_halfwidth": self.ci95_halfwidth,
            "repeats": self.repeats,
            "distances": list(self.distances),
        }


def ci95_halfwidth(values: np.ndarray) -> float:
    """1.96 * sd / sqrt(n) with the sample standard deviation; 0 for n < 2."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(n))


def split_distances(
    train: Sequence[TimeSeriesDataset],
    test: Sequence[TimeSeriesDataset],
    channels: Sequence[str],
) -> dict[str, dict[str, float]]:
    """Per-channel {pair_label: distance} for one train/test split.

    Channel samples are pooled across the datasets on each side and sorted
    once; all three distances read the same two sorted samples. Distances
    are taken on raw (unstandardized) values so they stay in physical units.
    """
    if not train or not test:
        raise EmptySample("train or test split")
    out: dict[str, dict[str, float]] = {}
    for ch in channels:
        tr = _sorted_sample(np.concatenate([ds.column(ch) for ds in train]))
        te = _sorted_sample(np.concatenate([ds.column(ch) for ds in test]))
        out[ch] = {
            PAIR_TRAIN_UNIFORM: _uniform_w1_sorted(tr),
            PAIR_TEST_UNIFORM: _uniform_w1_sorted(te),
            PAIR_TEST_TRAIN: _w1_sorted(te, tr),
        }
    return out


def split_shift_report(
    splits: Sequence[tuple[Sequence[TimeSeriesDataset], Sequence[TimeSeriesDataset]]],
    channels: Sequence[str],
) -> list[WassersteinResult]:
    """Aggregate split distances over resampled splits (one per repeat).

    Returns three results per channel (train/uniform, test/uniform,
    test/train) with the mean distance and a 1.96*sd/sqrt(repeats) half-width.
    """
    if not splits:
        raise EmptySample("splits")
    per_repeat = [split_distances(train, test, channels) for train, test in splits]
    repeats = len(per_repeat)
    results = []
    for ch in channels:
        for label in PAIR_LABELS:
            vals = np.asarray([rep[ch][label] for rep in per_repeat])
            results.append(
                WassersteinResult(
                    pair_label=label,
                    channel=ch,
                    mean_distance=float(vals.mean()),
                    ci95_halfwidth=ci95_halfwidth(vals),
                    repeats=repeats,
                    distances=tuple(float(v) for v in vals),
                )
            )
    return results
