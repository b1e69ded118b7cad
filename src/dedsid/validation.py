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


def ci95_halfwidth(values: np.ndarray) -> float:
    """1.96 * sd / sqrt(n) with the sample standard deviation; 0 for n < 2."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(n))


def _column_sums(block: np.ndarray) -> np.ndarray:
    """Each column's sum, pairwise down the column whatever the block's
    memory layout (``block.sum(axis=0)`` adds a row-major block row by row)."""
    return np.array([column.sum() for column in block.T])


def _centered_inputs(
    datasets: Sequence[TimeSeriesDataset], observables: Sequence[str], inputs: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Each observable's mean over every row, each input's over rows 0..m-2
    (the rows a rollout reads), and each dataset's input rows 0..m-2 less it."""
    if any(ds.row_count < 2 for ds in datasets):
        raise EmptySample("prediction needs at least 2 rows")
    rows = sum(ds.row_count for ds in datasets)
    obs_center = sum(_column_sums(ds.matrix_for(observables)) for ds in datasets) / rows
    inp_sums = sum(_column_sums(ds.matrix_for(inputs)[:-1]) for ds in datasets)
    inp_center = inp_sums / (rows - len(datasets))
    return obs_center, inp_center, [ds.matrix_for(inputs)[:-1] - inp_center for ds in datasets]


def _rollouts(
    model: StateSpaceModel,
    y0: np.ndarray,
    inputs: Sequence[np.ndarray],
    obs_center: np.ndarray,
    inp_center: np.ndarray,
) -> np.ndarray:
    """Self-fed rollouts from each ``y0`` row under each entry of ``inputs``,
    all less their centers, in one batched ``linear_recurrence`` call that
    scans the (S, T, q) drive in place: the drive and the rollouts are one
    array. Past a shorter entry's rows the drive is zero; what it predicts
    there is not a result.

    The standardizers fold into the operator: with y_s = (y - mean_y) /
    scale_y and z = y - c_y, the model y_s' = A y_s + B u_s reads z' = A' z +
    B' (u - c_u) + e, for A' = S_y A S_y^-1, B' = S_y B S_u^-1 (S the
    diagonal scales) and the constant e = d_y - A' d_y - B' d_u, d = mean -
    c. Centered by the data's means, nothing cancels, and each experiment's
    (u - c_u) B'^T + e is written straight into its rows of the drive.
    """
    # A side without a standardizer gets the identity map, which changes no value.
    in_std = model.input_standardizer or StandardizationParams.identity(model.input_names)
    obs_std = model.observable_standardizer or StandardizationParams.identity(
        model.observable_names
    )
    a = model.A * obs_std.scale[:, None] / obs_std.scale
    b = model.B * obs_std.scale[:, None] / in_std.scale
    d_obs, d_in = obs_std.mean - obs_center, in_std.mean - inp_center
    e = d_obs - a @ d_obs - b @ d_in
    drive = np.zeros((len(inputs), max(map(len, inputs)), len(a)))
    for u, row in zip(inputs, drive):
        np.matmul(u, b.T, out=row[: len(u)])
        row[: len(u)] += e
    return linear_recurrence(a, drive, y0)


def predict_series(
    model: StateSpaceModel, datasets: Sequence[TimeSeriesDataset]
) -> list[np.ndarray]:
    """Self-fed rollouts aligned with each dataset's rows, in original units.

    Row 0 is the measured initial state (a rollout has nothing to predict
    there); rows 1..m-1 are predictions, each fed back into the next.
    """
    if not datasets:
        return []
    names = model.observable_names
    obs_center, inp_center, inputs = _centered_inputs(datasets, names, model.input_names)
    firsts = np.array([ds.matrix_for(names)[0] for ds in datasets])
    pred = _rollouts(model, firsts - obs_center, inputs, obs_center, inp_center)
    return [
        np.concatenate([first[None], p[: len(u)] + obs_center])
        for first, p, u in zip(firsts, pred, inputs)
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
    # Numerical health of the fold's fit: the rank kept, s[0] / s[rank - 1] and
    # numerical rank of the snapshot matrix, and the largest eigenvalue modulus of A.
    svd_rank_used: int
    condition_number: float
    numerical_rank: int
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
    channels, serves every fold's fit, and the inputs, centered once per
    call, every fold's rollout. Metrics come from per-experiment residual
    sums and target moments, pooled per side.
    """
    splits = np.asarray(splits, dtype=bool)
    if splits.ndim != 2 or splits.shape[1] != len(datasets):
        raise DimensionMismatch(f"splits of shape {splits.shape} for {len(datasets)} experiments")
    if not splits.size:
        raise EmptySample("splits")
    ids = [ds.experiment_id for ds in datasets]
    obs_center, inp_center, inputs = _centered_inputs(datasets, config.observables, config.inputs)
    observed = [ds.matrix_for(config.observables) - obs_center for ds in datasets]
    y0, targets = np.array([o[0] for o in observed]), [o[1:] for o in observed]
    steps = np.array([len(t) for t in targets])
    means = np.array([t.sum(axis=0) for t in targets]) / steps[:, None]
    m2 = np.array([((t - m) ** 2).sum(axis=0) for t, m in zip(targets, means)])
    folds, overflows = [], 0
    for k, test in enumerate(splits):
        train = ~test
        subset = snapshots.subset([i for i, t in zip(ids, train) if t])
        model = fit(subset, config.svd_rank, config.standardize_inputs, config.standardize_observables)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = _rollouts(model, y0, inputs, obs_center, inp_center)
            for row, t in zip(residual, targets):
                row[: len(t)] -= t
                row[len(t) :] = 0.0
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
                numerical_rank=model.numerical_rank,
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
