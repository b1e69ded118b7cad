"""Cross-validated accuracy metrics and uncertainty envelopes.

Fold metrics are computed on full self-fed rollouts, not one-step-ahead
predictions: a surrogate that is only good one step ahead is useless for
process preview. Each experiment is rolled out from its own first measured
state, with the standardizers folded into the operator, so predictions and
metrics are in original units. The train side ("can the model reproduce what it saw") and the test
side ("can it predict what it did not") are reported separately; the test
side feeds the uncertainty envelope used for prediction bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import EVAL_MODES, FitConfig
from .dataset import StandardizationParams, TimeSeriesDataset, decimate, pool_moments
from .dmdc import (
    SnapshotSet,
    StateSpaceModel,
    build_snapshots,
    fit,
    linear_recurrence,
    spectral_radius,
)
from .errors import ConstantActual, EmptySample, TooFewExperiments
from .wasserstein import ci95_halfwidth


def _column_sums(block: np.ndarray) -> np.ndarray:
    """Each column's sum, pairwise down the column whatever the block's
    memory layout (``block.sum(axis=0)`` adds a row-major block row by row)."""
    return np.array([column.sum() for column in block.T])


def _padded(
    datasets: Sequence[TimeSeriesDataset], observables: Sequence[str], inputs: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each dataset's observables and inputs, centered and zero-padded to the longest.

    Returns ``obs`` (S, T + 1, q), rows 0..m-1 less ``obs_center``; ``inp``
    (S, T, p + 1), rows 0..m-2 less ``inp_center`` and then a column of
    ones; the two centers, each channel's mean over the gathered rows; and
    ``steps`` (S,), each dataset's m - 1 real steps. Padding is zero
    throughout, so it adds nothing to sums over the rows.
    """
    steps = np.array([ds.row_count - 1 for ds in datasets])
    if np.any(steps < 1):
        raise EmptySample("prediction needs at least 2 rows")
    obs_rows = [ds.matrix_for(observables) for ds in datasets]
    inp_rows = [ds.matrix_for(inputs)[:-1] for ds in datasets]
    obs_center = sum(map(_column_sums, obs_rows)) / (steps + 1).sum()
    inp_center = sum(map(_column_sums, inp_rows)) / steps.sum()
    obs = np.zeros((len(datasets), steps.max() + 1, len(observables)))
    inp = np.zeros((len(datasets), steps.max(), len(inputs) + 1))
    for o, u, obs_row, inp_row in zip(obs_rows, inp_rows, obs, inp):
        obs_row[: len(o)] = o - obs_center
        inp_row[: len(u), :-1] = u - inp_center
        inp_row[: len(u), -1] = 1.0
    return obs, inp, obs_center, inp_center, steps


def _padded_predictions(
    model: StateSpaceModel,
    obs: np.ndarray,
    inp: np.ndarray,
    obs_center: np.ndarray,
    inp_center: np.ndarray,
    eval_mode: str,
) -> np.ndarray:
    """Predictions of steps 1..T of ``_padded`` arrays, less ``obs_center``.

    ``rollout`` feeds each prediction back, from the measured first state;
    ``one-step`` feeds the measured state at every step; any other mode is
    a ``ValueError``. Every sequence runs in one ``linear_recurrence``
    batch; a padded step's inputs, ones column included, are zero, so its
    drive is zero, and what it predicts is not a result.

    The standardizers fold into the operator: with y_s = (y - mean_y) /
    scale_y and z = y - c_y, the model y_s' = A y_s + B u_s reads z' = A' z +
    B' (u - c_u) + e, for A' = S_y A S_y^-1, B' = S_y B S_u^-1 (S the
    diagonal scales) and the constant e = d_y - A' d_y - B' d_u, d = mean -
    c. Centered by the data's means, nothing cancels, and one matmul of
    ``inp`` against [B'^T; e] makes the drive.
    """
    # A side without a standardizer gets the identity map, which changes no value.
    in_std = model.input_standardizer or StandardizationParams.identity(model.input_names)
    obs_std = model.observable_standardizer or StandardizationParams.identity(
        model.observable_names
    )
    a = model.A * obs_std.scale[:, None] / obs_std.scale
    b = model.B * obs_std.scale[:, None] / in_std.scale
    d_obs, d_in = obs_std.mean - obs_center, in_std.mean - inp_center
    drive = inp @ np.vstack([b.T, d_obs - a @ d_obs - b @ d_in])
    if eval_mode == "rollout":
        return linear_recurrence(a, drive, obs[:, 0])
    if eval_mode == "one-step":
        return obs[:, :-1] @ a.T + drive
    raise ValueError(f"eval_mode must be one of {EVAL_MODES}, got {eval_mode!r}")


def predict_series(
    model: StateSpaceModel,
    datasets: Sequence[TimeSeriesDataset],
    eval_mode: str = FitConfig.eval_mode,
) -> list[np.ndarray]:
    """Model predictions aligned with each dataset's rows, in original units.

    Row 0 is the measured initial state (a rollout has nothing to predict
    there); rows 1..m-1 are predictions. ``rollout`` feeds each prediction
    back; ``one-step`` feeds the measured state at every step and exists for
    diagnosing whether errors come from the operator or from compounding.
    """
    if not datasets:
        return []
    padded = _padded(datasets, model.observable_names, model.input_names)
    _, _, obs_center, _, steps = padded
    pred = _padded_predictions(model, *padded[:4], eval_mode)
    return [
        np.concatenate([ds.matrix_for(model.observable_names)[:1], p[:n] + obs_center])
        for ds, p, n in zip(datasets, pred, steps)
    ]


@dataclass(frozen=True)
class FoldResult:
    fold_index: int
    test_ids: tuple[str, ...]
    r2_train: Mapping[str, float]
    r2_test: Mapping[str, float]
    rmse_train: Mapping[str, float]
    rmse_test: Mapping[str, float]
    # Numerical health of the fold's fit: the rank kept, s[0] / s[rank - 1]
    # of the snapshot matrix, and the largest eigenvalue modulus of A.
    svd_rank_used: int
    condition_number: float
    spectral_radius: float


@dataclass(frozen=True)
class Aggregate:
    mean: float
    ci95: float


@dataclass(frozen=True)
class CvReport:
    p: int
    repeats: int
    seed: int | None
    eval_mode: str
    observables: tuple[str, ...]
    folds: tuple[FoldResult, ...]
    aggregates: Mapping[str, Mapping[str, Aggregate]]


@dataclass(frozen=True)
class UncertaintyEnvelope:
    """Test-side rollout RMSE and its 95% CI half-width, per observable."""

    rmse: Mapping[str, float]
    ci95: Mapping[str, float]

    def half_width(self, observable: str) -> float:
        return self.rmse[observable] + self.ci95[observable]


def draw_splits(
    ids: Sequence[str], p: int, repeats: int, seed: int | None = None
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(train_ids, test_ids) per repeat; p test experiments drawn uniformly
    without replacement, freshly per repeat."""
    ids = list(ids)
    if len(ids) <= p:
        raise TooFewExperiments(len(ids), p)
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(repeats):
        test_idx = rng.choice(len(ids), size=p, replace=False)
        test = tuple(ids[i] for i in sorted(test_idx))
        train = tuple(i for i in ids if i not in test)
        splits.append((train, test))
    return splits


def _side_metrics(
    ssr: np.ndarray,
    counts: np.ndarray,
    means: np.ndarray,
    m2: np.ndarray,
    observables: Sequence[str],
) -> tuple[dict, dict]:
    """R^2 and RMSE per observable over a group of experiments, from each
    experiment's residual sum of squares, target count, mean and M2."""
    n, _, sst = pool_moments(counts, means, m2)
    if np.any(sst == 0.0):
        raise ConstantActual()
    ssr = ssr.sum(axis=0)
    r2 = 1.0 - ssr / sst
    rmse = np.sqrt(ssr / n)
    return (
        {obs: float(v) for obs, v in zip(observables, r2)},
        {obs: float(v) for obs, v in zip(observables, rmse)},
    )


def run_lpocv(
    datasets: Sequence[TimeSeriesDataset],
    config: FitConfig,
    p: int,
    repeats: int,
    seed: int | None = None,
    snapshots: SnapshotSet | None = None,
) -> tuple[CvReport, UncertaintyEnvelope]:
    """Leave-p-out cross-validation over experiments.

    Each repeat holds out p whole experiments (never individual rows; rows
    within an experiment are serially dependent, so splitting them would leak
    the test trajectory into training). Standardizers are refit on each
    repeat's training pool. Aggregates are mean and 1.96*sd/sqrt(repeats)
    over folds.

    The rows are read once per call: ``snapshots`` (``build_snapshots`` of
    ``datasets`` over the config's channels, built here when not given)
    serves every fold's fit, and one padded copy of the observables and
    inputs serves every fold's rollout. Metrics come from per-experiment
    residual sums and target moments, pooled per side.
    """
    by_id = {ds.experiment_id: i for i, ds in enumerate(datasets)}
    splits = draw_splits(list(by_id), p, repeats, seed)
    if snapshots is None:
        snapshots = build_snapshots(datasets, config.inputs, config.observables)
    padded = _padded(datasets, config.observables, config.inputs)
    obs, _, _, _, steps = padded
    targets = obs[:, 1:]
    means = targets.sum(axis=1) / steps[:, None]
    m2 = np.array([((t[:n] - m) ** 2).sum(axis=0) for t, m, n in zip(targets, means, steps)])
    folds = []
    for k, (train_ids, test_ids) in enumerate(splits):
        model = fit(
            snapshots.subset(train_ids),
            config.svd_rank,
            config.standardize_inputs,
            config.standardize_observables,
        )
        residual = _padded_predictions(model, *padded[:4], config.eval_mode)
        residual -= targets
        for row, n in zip(residual, steps):
            row[n:] = 0.0
        ssr = np.einsum("stq,stq->sq", residual, residual)
        train = [by_id[i] for i in train_ids]
        test = [by_id[i] for i in test_ids]
        r2_train, rmse_train = _side_metrics(
            ssr[train], steps[train], means[train], m2[train], config.observables
        )
        r2_test, rmse_test = _side_metrics(
            ssr[test], steps[test], means[test], m2[test], config.observables
        )
        folds.append(
            FoldResult(
                fold_index=k,
                test_ids=test_ids,
                r2_train=r2_train,
                r2_test=r2_test,
                rmse_train=rmse_train,
                rmse_test=rmse_test,
                svd_rank_used=model.svd_rank_used,
                condition_number=model.condition_number,
                spectral_radius=spectral_radius(model.A),
            )
        )

    metric_of = {
        "r2_train": lambda f: f.r2_train,
        "r2_test": lambda f: f.r2_test,
        "rmse_train": lambda f: f.rmse_train,
        "rmse_test": lambda f: f.rmse_test,
    }
    aggregates = {}
    for metric, getter in metric_of.items():
        per_obs = {}
        for obs in config.observables:
            vals = np.asarray([getter(f)[obs] for f in folds])
            per_obs[obs] = Aggregate(mean=float(vals.mean()), ci95=ci95_halfwidth(vals))
        aggregates[metric] = per_obs

    report = CvReport(
        p=p,
        repeats=repeats,
        seed=seed,
        eval_mode=config.eval_mode,
        observables=config.observables,
        folds=tuple(folds),
        aggregates=aggregates,
    )
    envelope = UncertaintyEnvelope(
        rmse={obs: aggregates["rmse_test"][obs].mean for obs in config.observables},
        ci95={obs: aggregates["rmse_test"][obs].ci95 for obs in config.observables},
    )
    return report, envelope


def bound_predictions(
    model: StateSpaceModel, envelope: UncertaintyEnvelope, ds: TimeSeriesDataset, eval_mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The predictions of ``ds`` with symmetric bounds at rmse + ci per observable.

    Returns ``predictions, lower, upper, measured, violated`` for rows
    1..m-1, each (m-1) x q in ``model.observable_names`` order; the
    predictions are ``predict_series``'s in ``eval_mode``, the mode whose
    test errors the envelope holds, and ``violated`` marks measurements
    strictly outside the bounds (one exactly on a bound is inside).
    """
    predictions = predict_series(model, [ds], eval_mode)[0][1:]
    measured = ds.matrix_for(model.observable_names)[1:]
    half = np.asarray([envelope.half_width(obs) for obs in model.observable_names])
    lower = predictions - half
    # Anchor the width to the lower bound: upper equals lower + 2*(rmse+ci)
    # bit for bit, the strongest width identity floating point can offer
    # (re-subtracting rounds again, so upper - lower only matches to 1 ulp).
    upper = lower + 2.0 * half
    violated = (measured < lower) | (measured > upper)
    return predictions, lower, upper, measured, violated


@dataclass(frozen=True)
class FrequencyStudyRow:
    factor: int
    sample_rate_hz: float
    r2_test: Mapping[str, Aggregate]
    rmse_test: Mapping[str, Aggregate]


def frequency_study(
    datasets: Sequence[TimeSeriesDataset],
    config: FitConfig,
    factors: Sequence[int],
    p: int,
    repeats: int,
    seed: int | None = None,
) -> list[FrequencyStudyRow]:
    """Rerun cross-validation at progressively slower recording rates.

    Decimation drops samples outright (no anti-alias filter), exactly as a
    slower sensor would. The same seed is reused per factor so every rate
    sees the same sequence of train/test splits.
    """
    rows = []
    for factor in factors:
        slowed = [decimate(ds, factor) for ds in datasets]
        report, _ = run_lpocv(slowed, config, p=p, repeats=repeats, seed=seed)
        rows.append(
            FrequencyStudyRow(
                factor=int(factor),
                sample_rate_hz=slowed[0].sample_rate_hz,
                r2_test=report.aggregates["r2_test"],
                rmse_test=report.aggregates["rmse_test"],
            )
        )
    return rows
