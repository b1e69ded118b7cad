"""Cross-validated accuracy metrics and uncertainty envelopes.

Fold metrics are computed on full self-fed rollouts, not one-step-ahead
predictions: a surrogate that is only good one step ahead is useless for
process preview. Each experiment is rolled out from its own first measured
state, predictions are inverse-transformed, and metrics are taken in original
units. The train side ("can the model reproduce what it saw") and the test
side ("can it predict what it did not") are reported separately; the test
side feeds the uncertainty envelope used for prediction bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import TimeSeriesDataset, decimate, fit_standardizer_pooled
from .dmdc import StateSpaceModel, build_snapshots, fit, rollout
from .errors import ConstantActual, DimensionMismatch, EmptySample, TooFewExperiments
from .wasserstein import ci95_halfwidth

EVAL_MODES = ("rollout", "one-step")


def r2(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination; undefined (error) for constant actuals."""
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
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size == 0 or actual.size != predicted.size:
        raise EmptySample("metric vectors" if actual.size == 0 else "length-matched vectors")
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


@dataclass(frozen=True)
class FitConfig:
    """What to fit on and how, shared by every cross-validation consumer."""

    inputs: tuple[str, ...]
    observables: tuple[str, ...]
    standardize_inputs: bool = True
    standardize_observables: bool = True
    svd_rank: int | None = None
    eval_mode: str = "rollout"

    def __post_init__(self):
        if self.eval_mode not in EVAL_MODES:
            raise ValueError(f"eval_mode must be one of {EVAL_MODES}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "observables", tuple(self.observables))


def fit_on_datasets(datasets: Sequence[TimeSeriesDataset], config: FitConfig) -> StateSpaceModel:
    """Fit standardizers on the pooled rows (per config), then fit; the
    standardizers are applied to the pairs as they are read and ride along."""
    input_std = (
        fit_standardizer_pooled(datasets, config.inputs) if config.standardize_inputs else None
    )
    obs_std = (
        fit_standardizer_pooled(datasets, config.observables)
        if config.standardize_observables
        else None
    )
    snapshots = build_snapshots(
        datasets,
        config.inputs,
        config.observables,
        input_standardizer=input_std,
        observable_standardizer=obs_std,
    )
    return fit(snapshots, rank=config.svd_rank)


def predict_series(
    model: StateSpaceModel, ds: TimeSeriesDataset, eval_mode: str = "rollout"
) -> np.ndarray:
    """Model predictions aligned with the dataset rows, in original units.

    Row 0 is the measured initial state (a rollout has nothing to predict
    there); rows 1..m-1 are predictions. ``rollout`` feeds each prediction
    back; ``one-step`` feeds the measured state at every step and exists for
    diagnosing whether errors come from the operator or from compounding.
    """
    if eval_mode not in EVAL_MODES:
        raise ValueError(f"eval_mode must be one of {EVAL_MODES}")
    obs = ds.matrix_for(model.observable_names)
    inp = ds.matrix_for(model.input_names)
    if ds.row_count < 2:
        raise EmptySample("prediction needs at least 2 rows")
    if model.input_standardizer is not None:
        inp = model.input_standardizer.transform_matrix(inp)
    obs_std = obs
    if model.observable_standardizer is not None:
        obs_std = model.observable_standardizer.transform_matrix(obs)

    u = inp[:-1].T
    if eval_mode == "rollout":
        pred_std = rollout(model, obs_std[0], u)
    else:
        pred_std = model.A @ obs_std[:-1].T + model.B @ u
    pred = pred_std.T
    if model.observable_standardizer is not None:
        pred = model.observable_standardizer.invert_matrix(pred)
    out = np.empty_like(obs)
    out[0] = obs[0]
    out[1:] = pred
    return out


@dataclass(frozen=True)
class FoldResult:
    fold_index: int
    test_ids: tuple[str, ...]
    r2_train: Mapping[str, float]
    r2_test: Mapping[str, float]
    rmse_train: Mapping[str, float]
    rmse_test: Mapping[str, float]


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


def _pooled_metrics(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]], observables: Sequence[str]
) -> tuple[dict, dict]:
    actual = np.concatenate([a for a, _ in pairs], axis=0)
    predicted = np.concatenate([p for _, p in pairs], axis=0)
    r2_map, rmse_map = {}, {}
    for j, obs in enumerate(observables):
        r2_map[obs] = r2(actual[:, j], predicted[:, j])
        rmse_map[obs] = rmse(actual[:, j], predicted[:, j])
    return r2_map, rmse_map


def run_lpocv(
    datasets: Sequence[TimeSeriesDataset],
    config: FitConfig,
    p: int = 3,
    repeats: int = 10,
    seed: int | None = None,
) -> tuple[CvReport, UncertaintyEnvelope]:
    """Leave-p-out cross-validation over experiments.

    Each repeat holds out p whole experiments (never individual rows; rows
    within an experiment are serially dependent, so splitting them would leak
    the test trajectory into training). Standardizers are refit on each
    repeat's training pool. Aggregates are mean and 1.96*sd/sqrt(repeats)
    over folds.
    """
    by_id = {ds.experiment_id: ds for ds in datasets}
    splits = draw_splits(list(by_id), p, repeats, seed)
    folds = []
    for k, (train_ids, test_ids) in enumerate(splits):
        train = [by_id[i] for i in train_ids]
        test = [by_id[i] for i in test_ids]
        model = fit_on_datasets(train, config)
        train_pairs = [
            (ds.matrix_for(config.observables)[1:], predict_series(model, ds, config.eval_mode)[1:])
            for ds in train
        ]
        test_pairs = [
            (ds.matrix_for(config.observables)[1:], predict_series(model, ds, config.eval_mode)[1:])
            for ds in test
        ]
        r2_train, rmse_train = _pooled_metrics(train_pairs, config.observables)
        r2_test, rmse_test = _pooled_metrics(test_pairs, config.observables)
        folds.append(
            FoldResult(
                fold_index=k,
                test_ids=test_ids,
                r2_train=r2_train,
                r2_test=r2_test,
                rmse_train=rmse_train,
                rmse_test=rmse_test,
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


@dataclass(frozen=True)
class BoundedPrediction:
    observables: tuple[str, ...]
    predictions: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    violations: Mapping[str, tuple[tuple[int, float, float], ...]] = field(default_factory=dict)


def bound_predictions(
    model: StateSpaceModel,
    envelope: UncertaintyEnvelope,
    y0: np.ndarray,
    inputs: np.ndarray,
    ground_truth: np.ndarray | None = None,
) -> BoundedPrediction:
    """Rollout with symmetric bounds at rmse + ci per observable.

    ``y0``/``inputs``/``ground_truth`` are in original units; the model's own
    standardizers handle both directions. Violations list (step, measured,
    violated bound) per observable when ground truth is supplied.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if model.input_standardizer is not None:
        inputs = model.input_standardizer.transform_matrix(inputs.T).T
    if model.observable_standardizer is not None:
        y0 = model.observable_standardizer.transform_matrix(y0[None, :])[0]
    pred = rollout(model, y0, inputs).T
    if model.observable_standardizer is not None:
        pred = model.observable_standardizer.invert_matrix(pred)

    names = model.observable_names
    half = np.asarray([envelope.half_width(obs) for obs in names])
    lower = pred - half
    # Anchor the width to the lower bound: upper equals lower + 2*(rmse+ci)
    # bit for bit, the strongest width identity floating point can offer
    # (re-subtracting rounds again, so upper - lower only matches to 1 ulp).
    upper = lower + 2.0 * half

    violations: dict[str, tuple[tuple[int, float, float], ...]] = {}
    if ground_truth is not None:
        truth = np.asarray(ground_truth, dtype=float)
        if truth.shape != pred.shape:
            raise DimensionMismatch(
                f"ground truth shape {truth.shape} differs from predictions {pred.shape}"
            )
        for j, obs in enumerate(names):
            rows = []
            below = truth[:, j] < lower[:, j]
            above = truth[:, j] > upper[:, j]
            for t in np.nonzero(below)[0]:
                rows.append((int(t), float(truth[t, j]), float(lower[t, j])))
            for t in np.nonzero(above)[0]:
                rows.append((int(t), float(truth[t, j]), float(upper[t, j])))
            violations[obs] = tuple(sorted(rows))
    return BoundedPrediction(
        observables=names,
        predictions=pred,
        lower=lower,
        upper=upper,
        violations=violations,
    )


@dataclass(frozen=True)
class HistogramResult:
    counts: np.ndarray
    bin_edges: np.ndarray


def residual_histogram(actual: np.ndarray, predicted: np.ndarray, bins: int = 50) -> HistogramResult:
    """Histogram of actual - predicted, plot-ready."""
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size == 0 or actual.size != predicted.size:
        raise EmptySample("residual vectors")
    counts, edges = np.histogram(actual - predicted, bins=bins)
    return HistogramResult(counts=counts, bin_edges=edges)


@dataclass(frozen=True)
class ParityData:
    actual: np.ndarray
    predicted: np.ndarray
    slope: float
    intercept: float


def parity_data(actual: np.ndarray, predicted: np.ndarray) -> ParityData:
    """Paired series plus the least-squares line of predicted against actual."""
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size == 0 or actual.size != predicted.size:
        raise EmptySample("parity vectors")
    slope, intercept = np.polyfit(actual, predicted, 1)
    return ParityData(actual=actual, predicted=predicted, slope=float(slope), intercept=float(intercept))


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
    p: int = 3,
    repeats: int = 10,
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
