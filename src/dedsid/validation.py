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

from .config import FitConfig
from .dataset import StandardizationParams, TimeSeriesDataset, decimate, pool_moments
from .dmdc import (
    SnapshotSet,
    StateSpaceModel,
    build_snapshots,
    fit,
    linear_recurrence,
    spectral_radius,
)
from .errors import (
    AllFoldsDiverged,
    ConstantActual,
    DimensionMismatch,
    EmptySample,
    TooFewExperiments,
)
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
) -> np.ndarray:
    """Rollouts of steps 1..T of ``_padded`` arrays, less ``obs_center``.

    Each prediction is fed back, from the measured first state. Every
    sequence runs in one ``linear_recurrence`` batch; a padded step's
    inputs, ones column included, are zero, so its drive is zero, and what
    it predicts is not a result.

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
    return linear_recurrence(a, drive, obs[:, 0])


def predict_series(
    model: StateSpaceModel, datasets: Sequence[TimeSeriesDataset]
) -> list[np.ndarray]:
    """Self-fed rollouts aligned with each dataset's rows, in original units.

    Row 0 is the measured initial state (a rollout has nothing to predict
    there); rows 1..m-1 are predictions, each fed back into the next.
    """
    if not datasets:
        return []
    padded = _padded(datasets, model.observable_names, model.input_names)
    _, _, obs_center, _, steps = padded
    pred = _padded_predictions(model, *padded[:4])
    return [
        np.concatenate([ds.matrix_for(model.observable_names)[:1], p[:n] + obs_center])
        for ds, p, n in zip(datasets, pred, steps)
    ]


@dataclass(frozen=True)
class FoldResult:
    fold_index: int
    test_ids: tuple[str, ...]
    # A diverged fold's A has spectral radius above 1 or its rollout
    # overflowed somewhere: the aggregates leave the fold out, and its
    # non-finite metrics are None.
    diverged: bool
    r2_train: Mapping[str, float | None]
    r2_test: Mapping[str, float | None]
    rmse_train: Mapping[str, float | None]
    rmse_test: Mapping[str, float | None]
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
    config: FitConfig
    folds: tuple[FoldResult, ...]
    finite_folds: int
    aggregates: Mapping[str, Mapping[str, Aggregate]]


@dataclass(frozen=True)
class UncertaintyEnvelope:
    """Test-side rollout RMSE and its 95% CI half-width, per observable."""

    rmse: Mapping[str, float]
    ci95: Mapping[str, float]

    @classmethod
    def of(cls, report: CvReport) -> UncertaintyEnvelope:
        """The mean and CI half-width of ``report``'s test RMSE, per observable."""
        rmse = report.aggregates["rmse_test"]
        return cls({k: a.mean for k, a in rmse.items()}, {k: a.ci95 for k, a in rmse.items()})

    def half_width(self, observable: str) -> float:
        return self.rmse[observable] + self.ci95[observable]


def draw_splits(experiments: int, p: int, repeats: int, seed: int | None = None) -> np.ndarray:
    """A (repeats, experiments) boolean array; each row marks one split's p
    test experiments, drawn uniformly without replacement, freshly per repeat."""
    if experiments <= p:
        raise TooFewExperiments(experiments, p)
    rng = np.random.default_rng(seed)
    splits = np.zeros((repeats, experiments), dtype=bool)
    for test in splits:
        test[rng.choice(experiments, size=p, replace=False)] = True
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
    splits: np.ndarray,
    snapshots: SnapshotSet,
) -> tuple[CvReport, UncertaintyEnvelope]:
    """Leave-p-out cross-validation over experiments.

    Each row of ``splits``, a (repeats, experiments) boolean array from
    ``draw_splits``, marks the whole experiments one fold holds out (never
    individual rows; rows within an experiment are serially dependent, so
    splitting them would leak the test trajectory into training).
    Standardizers are refit on each fold's training pool. A fold whose
    fitted A has spectral radius above 1, or whose rollout overflows
    anywhere, is flagged ``diverged``; aggregates are mean
    and 1.96*sd/sqrt(n) over the n finite folds, and with none left the run
    is ``AllFoldsDiverged``.

    ``snapshots``, ``build_snapshots`` of ``datasets`` over the config's
    channels, serves every fold's fit; one padded copy of the observables
    and inputs serves every fold's rollout. Metrics come from
    per-experiment residual sums and target moments, pooled per side.
    """
    splits = np.asarray(splits, dtype=bool)
    if splits.ndim != 2 or splits.shape[1] != len(datasets):
        raise DimensionMismatch(f"splits of shape {splits.shape} for {len(datasets)} experiments")
    if not splits.size:
        raise EmptySample("splits")
    ids = [ds.experiment_id for ds in datasets]
    padded = _padded(datasets, config.observables, config.inputs)
    obs, _, _, _, steps = padded
    targets = obs[:, 1:]
    means = targets.sum(axis=1) / steps[:, None]
    m2 = np.array([((t[:n] - m) ** 2).sum(axis=0) for t, m, n in zip(targets, means, steps)])
    folds, overflows = [], 0
    for k, test in enumerate(splits):
        train = ~test
        model = fit(
            snapshots.subset([i for i, t in zip(ids, train) if t]),
            config.svd_rank,
            config.standardize_inputs,
            config.standardize_observables,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            residual = _padded_predictions(model, *padded[:4])
            residual -= targets
            for row, n in zip(residual, steps):
                row[n:] = 0.0
            ssr = np.einsum("stq,stq->sq", residual, residual)
            metrics = [
                metric
                for side in (train, test)
                for metric in _side_metrics(
                    ssr[side], steps[side], means[side], m2[side], config.observables
                )
            ]
        radius = spectral_radius(model.A)
        overflowed = not all(np.isfinite(v) for metric in metrics for v in metric.values())
        overflows += overflowed
        if overflowed:
            metrics = [{k: v if np.isfinite(v) else None for k, v in m.items()} for m in metrics]
        r2_train, rmse_train, r2_test, rmse_test = metrics
        folds.append(
            FoldResult(
                fold_index=k,
                test_ids=tuple(i for i, t in zip(ids, test) if t),
                diverged=overflowed or radius > 1.0,
                r2_train=r2_train,
                r2_test=r2_test,
                rmse_train=rmse_train,
                rmse_test=rmse_test,
                svd_rank_used=model.svd_rank_used,
                condition_number=model.condition_number,
                spectral_radius=radius,
            )
        )

    finite = [f for f in folds if not f.diverged]
    if not finite:
        raise AllFoldsDiverged(len(folds), sum(f.spectral_radius > 1.0 for f in folds), overflows)
    aggregates = {}
    for metric in ("r2_train", "r2_test", "rmse_train", "rmse_test"):
        aggregates[metric] = {}
        for obs in config.observables:
            vals = np.asarray([getattr(f, metric)[obs] for f in finite])
            aggregates[metric][obs] = Aggregate(mean=float(vals.mean()), ci95=ci95_halfwidth(vals))

    report = CvReport(
        p=int(splits[0].sum()),
        repeats=len(splits),
        config=config,
        folds=tuple(folds),
        finite_folds=len(finite),
        aggregates=aggregates,
    )
    return report, UncertaintyEnvelope.of(report)


def bound_predictions(
    model: StateSpaceModel, envelope: UncertaintyEnvelope, ds: TimeSeriesDataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The predictions of ``ds`` with symmetric bounds at rmse + ci per observable.

    Returns ``predictions, lower, upper, measured, violated`` for rows
    1..m-1, each (m-1) x q in ``model.observable_names`` order; the
    predictions are ``predict_series``' rollout, the kind of prediction
    whose test errors the envelope holds, and ``violated`` marks
    measurements strictly outside the bounds (one exactly on a bound is
    inside).
    """
    predictions = predict_series(model, [ds])[0][1:]
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
    finite_folds: int
    # The smallest rank kept by any fold's fit at this rate: below q + p
    # (or the rank cap), some fold's snapshot matrix was rank deficient.
    min_svd_rank_used: int
    r2_test: Mapping[str, Aggregate]
    rmse_test: Mapping[str, Aggregate]


def frequency_study(
    datasets: Sequence[TimeSeriesDataset],
    factors: Sequence[int],
    splits: np.ndarray,
    config: FitConfig,
    full_rate: CvReport | None = None,
) -> list[FrequencyStudyRow]:
    """Rerun cross-validation at progressively slower recording rates.

    Decimation drops samples outright (no anti-alias filter), exactly as a
    slower sensor would. Every decimated rate builds its own pass and is
    scored on the same ``splits`` under ``config``. Factor 1's row is read
    off ``full_rate``, the ``run_lpocv`` report of ``datasets`` on ``splits``
    under ``config``, which only factors that include 1 need.
    """
    if 1 in factors and full_rate is None:
        raise ValueError("factor 1 is read off a full-rate cv report, and none was given")
    rows = []
    for factor in factors:
        report, slowed = full_rate, datasets
        if factor != 1:
            slowed = [decimate(ds, factor) for ds in datasets]
            rate_pass = build_snapshots(slowed, config.inputs, config.observables)
            report, _ = run_lpocv(slowed, config, splits, rate_pass)
        rows.append(
            FrequencyStudyRow(
                factor=int(factor),
                sample_rate_hz=slowed[0].sample_rate_hz,
                finite_folds=report.finite_folds,
                min_svd_rank_used=min(f.svd_rank_used for f in report.folds),
                r2_test=report.aggregates["r2_test"],
                rmse_test=report.aggregates["rmse_test"],
            )
        )
    return rows
