from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    diverging_corpus,
    fit_on_datasets,
    linear_corpus,
    lpocv,
    make_dataset,
    r2,
    rmse,
    standardize,
    traced_peak,
    unstandardize,
    with_column,
)

from dedsid.artifacts import from_plain, to_plain
from dedsid.config import FitConfig
from dedsid.dataset import decimate
from dedsid.dmdc import StateSpaceModel, build_snapshots
from dedsid.errors import (
    AllFoldsDiverged,
    ConstantActual,
    DimensionMismatch,
    EmptySample,
    TooFewExperiments,
)
from dedsid.validation import (
    UncertaintyEnvelope,
    bound_predictions,
    draw_splits,
    frequency_study,
    predict_series,
    run_lpocv,
)


class TestMetrics:
    def test_hand_values(self):
        actual = [1.0, 2.0, 3.0, 4.0]
        predicted = [1.0, 2.0, 3.0, 5.0]
        assert rmse(actual, predicted) == pytest.approx(0.5, abs=1e-15)
        assert r2(actual, predicted) == pytest.approx(0.8, abs=1e-15)

    def test_perfect_fit(self):
        x = np.linspace(0, 1, 20)
        assert r2(x, x) == 1.0
        assert rmse(x, x) == 0.0

    def test_constant_actual_rejected(self):
        with pytest.raises(ConstantActual):
            r2(np.ones(5), np.zeros(5))


class TestDrawSplits:
    def test_shapes_and_disjointness(self):
        splits = draw_splits(8, p=3, repeats=10, seed=0)
        assert splits.shape == (10, 8)
        assert splits.dtype == bool
        assert np.all(splits.sum(axis=1) == 3)

    def test_seeded_determinism(self):
        a = draw_splits(6, 2, 5, seed=3)
        b = draw_splits(6, 2, 5, seed=3)
        c = draw_splits(6, 2, 5, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fresh_draw_each_repeat(self):
        splits = draw_splits(10, 3, 12, seed=1)
        assert len({tuple(test) for test in splits}) > 1

    def test_one_choice_per_repeat(self):
        # Each row marks what one rng.choice of p experiments picks, so a
        # seed names the same splits it named as lists of ids.
        rng = np.random.default_rng(9)
        for test in draw_splits(7, 3, 6, seed=9):
            assert np.flatnonzero(test).tolist() == sorted(rng.choice(7, size=3, replace=False))

    def test_too_few_experiments(self):
        with pytest.raises(TooFewExperiments):
            draw_splits(2, p=2, repeats=1, seed=0)


def _fit_config(spec, standardize=True):
    return FitConfig(
        inputs=spec.input_names,
        observables=spec.observable_names,
        standardize_inputs=standardize,
        standardize_observables=standardize,
    )


class TestFitOnDatasets:
    def test_noise_free_recovery_without_standardization(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=3, steps=800, seed=21)
        model = fit_on_datasets(datasets, _fit_config(spec, standardize=False))
        assert np.allclose(model.A, spec.A, atol=1e-8)
        assert np.allclose(model.B, spec.B, atol=1e-8)

    def test_standardized_fit_predicts_in_original_units(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=3, steps=800, seed=22)
        model = fit_on_datasets(datasets, _fit_config(spec, standardize=True))
        pred = predict_series(model, [datasets[0]])[0]
        truth = datasets[0].matrix_for(spec.observable_names)
        assert np.allclose(pred, truth, atol=1e-6)


def per_step_prediction(model, ds):
    """One dataset at a time through the per-step rollout loop, for ``predict_series``."""
    measured = ds.matrix_for(model.observable_names)
    y, u = measured, ds.matrix_for(model.input_names)
    if model.input_standardizer is not None:
        u = standardize(model.input_standardizer, u)
    if model.observable_standardizer is not None:
        y = standardize(model.observable_standardizer, y)
    out = np.empty_like(y)
    state = out[0] = y[0]
    for t in range(len(y) - 1):
        state = model.A @ state + model.B @ u[t]
        out[t + 1] = state
    if model.observable_standardizer is not None:
        out = unstandardize(model.observable_standardizer, out)
    out[0] = measured[0]
    return out


class TestPredictSeries:
    @pytest.mark.parametrize("standardize", [True, False])
    def test_batch_of_unequal_lengths_matches_per_step_loop(self, standardize):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=4, steps=600, seed=27, noise_sd=0.05)
        model = fit_on_datasets(datasets, _fit_config(spec, standardize))
        batch = [
            datasets[0],
            decimate(datasets[1], 3),
            datasets[2].with_data(datasets[2].data[:2]),
            datasets[3].with_data(datasets[3].data[:450]),
        ]
        for ds, pred in zip(batch, predict_series(model, batch)):
            expected = per_step_prediction(model, ds)
            assert pred.shape == expected.shape == (ds.row_count, 2)
            assert np.array_equal(pred[0], expected[0])
            assert np.max(np.abs(pred - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_no_datasets_no_predictions(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=3, steps=800, seed=22)
        assert predict_series(fit_on_datasets(datasets, _fit_config(spec)), []) == []


class TestMemory:
    """Rollouts read each experiment's own rows. On one long experiment and
    five short ones, q = 2 and p = 6, the drive, which the scan overwrites
    with the rollout, is one S x T x q array holding about the bytes of the
    rows; a copy of every channel padded to the longest would add about 4.5
    times them. The peaks read 3.93 and 2.66 times the rows' bytes, bounded
    with a margin of about 10%."""

    @pytest.fixture(scope="class")
    def uneven(self):
        spec, datasets = linear_corpus(q=2, p=6, n_exp=6, steps=8000, seed=40)
        datasets = [datasets[0]] + [ds.with_data(ds.data[:800]) for ds in datasets[1:]]
        row_bytes = sum(ds.row_count for ds in datasets) * 8 * 8
        return datasets, _fit_config(spec), row_bytes

    def test_lpocv_peak(self, uneven):
        datasets, config, row_bytes = uneven
        snapshots = build_snapshots(datasets, config.inputs, config.observables)
        splits = draw_splits(len(datasets), 2, 3, 1)
        peak = traced_peak(lambda: run_lpocv(datasets, config, splits, snapshots))
        assert peak < 4.3 * row_bytes

    def test_predict_series_peak(self, uneven):
        datasets, config, row_bytes = uneven
        model = fit_on_datasets(datasets, config)
        assert traced_peak(lambda: predict_series(model, datasets)) < 2.9 * row_bytes


class TestColumnOrder:
    def test_results_independent_of_column_order(self):
        # The same channels in two column orders: observables a contiguous run
        # (blocks are views) and observables split by an input (blocks are
        # copies). Offset observables make any change of summation order show.
        spec, datasets = linear_corpus(q=3, p=2, n_exp=5, steps=3000, seed=31, noise_sd=0.05)
        offset = np.r_[0.0, 0.0, np.full(3, 1500.0)]
        datasets = [ds.with_data(ds.data + offset) for ds in datasets]
        names = [c.name for c in datasets[0].channels]
        assert names == [*spec.input_names, *spec.observable_names]
        order = [names[2], names[0], names[3], names[4], names[1]]
        shuffled = [ds.select_channels(order) for ds in datasets]
        assert not np.shares_memory(shuffled[0].matrix_for(spec.observable_names), shuffled[0].data)
        assert np.shares_memory(datasets[0].matrix_for(spec.observable_names), datasets[0].data)
        config = _fit_config(spec)
        model = fit_on_datasets(datasets, config)
        for a, b in zip(predict_series(model, datasets), predict_series(model, shuffled)):
            assert np.array_equal(a, b)
        splits = draw_splits(len(datasets), 2, 3, 4)
        got = [to_plain(lpocv(d, config, splits)) for d in (datasets, shuffled)]
        assert got[0] == got[1]


class TestLpocv:
    def test_noise_free_scores_near_perfect(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=6, steps=900, seed=24)
        splits = draw_splits(len(datasets), 2, 6, 0)
        report, envelope = lpocv(datasets, _fit_config(spec), splits)
        assert report.finite_folds == 6 and not any(f.diverged for f in report.folds)
        for obs in spec.observable_names:
            assert report.aggregates["r2_test"][obs].mean > 0.999
            assert envelope.rmse[obs] < 1e-4

    def test_train_tends_to_beat_test_under_noise(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=8, steps=700, seed=25, noise_sd=0.05)
        report, _ = lpocv(datasets, _fit_config(spec), draw_splits(len(datasets), 3, 10, 1))
        wins = 0
        total = 0
        for fold in report.folds:
            for obs in spec.observable_names:
                total += 1
                if fold.rmse_train[obs] <= fold.rmse_test[obs]:
                    wins += 1
        assert wins >= int(0.6 * total)

    def test_deterministic_given_seed(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=5, steps=500, seed=26, noise_sd=0.1)
        a, env_a = lpocv(datasets, _fit_config(spec), draw_splits(len(datasets), 2, 4, 7))
        b, env_b = lpocv(datasets, _fit_config(spec), draw_splits(len(datasets), 2, 4, 7))
        assert to_plain(a) == to_plain(b)
        assert to_plain(env_a) == to_plain(env_b)

    def test_splits_must_mark_each_experiment(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=4, steps=300, seed=26)
        with pytest.raises(DimensionMismatch):
            lpocv(datasets, _fit_config(spec), draw_splits(3, 1, 2, 0))
        with pytest.raises(EmptySample):
            lpocv(datasets, _fit_config(spec), np.zeros((0, 4), dtype=bool))

    def test_diverged_folds_left_out_of_the_aggregates(self):
        # Holding out the long experiment leaves a fit of the explosive
        # short ones, whose rollout of the long one overflows.
        datasets = diverging_corpus(long_scale=50.0)
        config = FitConfig(inputs=("u",), observables=("y",))
        report, envelope = lpocv(datasets, config, np.eye(4, dtype=bool))
        assert [f.diverged for f in report.folds] == [False, False, False, True]
        assert report.folds[3].test_ids == ("long",)
        assert report.folds[3].rmse_test == {"y": None}
        assert report.finite_folds == 3
        for metric, per_obs in report.aggregates.items():
            vals = np.array([getattr(f, metric)["y"] for f in report.folds[:3]])
            assert np.isfinite(vals).all()
            assert per_obs["y"].mean == float(vals.mean())
            assert per_obs["y"].ci95 == float(1.96 * vals.std(ddof=1) / np.sqrt(3))
        assert envelope.rmse["y"] == report.aggregates["rmse_test"]["y"].mean
        assert envelope.ci95["y"] == report.aggregates["rmse_test"]["y"].ci95
        assert envelope == UncertaintyEnvelope.of(report)

    def test_every_fold_diverged_is_a_numeric_error(self):
        datasets = diverging_corpus(long_scale=0.01)
        config = FitConfig(inputs=("u",), observables=("y",))
        message = (
            "all 4 cross-validation folds diverged: the fitted A has spectral radius "
            "above 1 in 4, the rollout overflowed in 4"
        )
        with pytest.raises(AllFoldsDiverged, match=message):
            lpocv(datasets, config, np.eye(4, dtype=bool))

    def test_unstable_folds_with_finite_rollouts_are_counted(self):
        # The short explosive experiments alone fit A of radius near 1.05,
        # and their 120-step rollouts stay finite.
        datasets = diverging_corpus(long_scale=0.01)[:3]
        config = FitConfig(inputs=("u",), observables=("y",))
        message = "spectral radius above 1 in 3, the rollout overflowed in 0"
        with pytest.raises(AllFoldsDiverged, match=message):
            lpocv(datasets, config, np.eye(3, dtype=bool))

    def test_envelope_from_dict_round_trip(self):
        env = UncertaintyEnvelope(rmse={"y1": 0.5}, ci95={"y1": 0.125})
        back = from_plain(UncertaintyEnvelope, to_plain(env))
        assert back.rmse == env.rmse and back.ci95 == env.ci95
        assert back.half_width("y1") == 0.625


class TestLpocvAgainstRows:
    """Fold metrics from per-experiment sums against the rows they summarize."""

    @pytest.mark.parametrize("standardize", [True, False])
    def test_fold_metrics_match_row_oracle(self, standardize):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=6, steps=500, seed=30, noise_sd=0.05)
        # Unequal lengths, so the padding shows if it leaks into a sum.
        datasets = [ds.with_data(ds.data[: 200 + 60 * i]) for i, ds in enumerate(datasets)]
        config = _fit_config(spec, standardize)
        splits = draw_splits(len(datasets), 2, 4, 3)
        report, _ = lpocv(datasets, config, splits)
        for fold, test in zip(report.folds, splits):
            tested = [ds for ds, t in zip(datasets, test) if t]
            train = [ds for ds, t in zip(datasets, test) if not t]
            assert fold.test_ids == tuple(ds.experiment_id for ds in tested)
            model = fit_on_datasets(train, config)
            assert fold.svd_rank_used == model.svd_rank_used == fold.numerical_rank == 4
            assert fold.condition_number == model.condition_number >= 1.0
            assert fold.spectral_radius == np.max(np.abs(np.linalg.eigvals(model.A)))
            for side, r2_map, rmse_map in (
                (train, fold.r2_train, fold.rmse_train),
                (tested, fold.r2_test, fold.rmse_test),
            ):
                actual = np.concatenate([ds.matrix_for(spec.observable_names)[1:] for ds in side])
                predicted = np.concatenate([per_step_prediction(model, ds)[1:] for ds in side])
                for j, obs in enumerate(spec.observable_names):
                    assert r2_map[obs] == pytest.approx(r2(actual[:, j], predicted[:, j]), rel=1e-9)
                    assert rmse_map[obs] == pytest.approx(
                        rmse(actual[:, j], predicted[:, j]), rel=1e-9
                    )

    def test_constant_actual_side_rejected(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=4, steps=300, seed=31)
        name = spec.observable_names[0]
        flat = [with_column(ds, name, np.full(ds.row_count, 2.0)) for ds in datasets]
        with pytest.raises(ConstantActual):
            lpocv(flat, _fit_config(spec), draw_splits(len(flat), 1, 1, 0))


class TestBoundPredictions:
    def _zero_model(self):
        return StateSpaceModel(
            A=np.zeros((1, 1)),
            B=np.zeros((1, 1)),
            observable_names=("y1",),
            input_names=("u1",),
            sample_rate_hz=100.0,
            svd_rank_used=1,
        )

    def test_hand_case_bounds_and_violations(self):
        envelope = UncertaintyEnvelope(rmse={"y1": 0.5}, ci95={"y1": 0.125})
        truth = [0.0, 0.0, 0.7, -0.7, 0.625, -0.625]
        ds = make_dataset(
            np.column_stack([truth, np.zeros(6)]), names=["y1", "u1"], kinds=["observable", "input"]
        )
        pred, lower, upper, measured, violated = bound_predictions(
            self._zero_model(), envelope, ds
        )
        assert np.allclose(pred, 0.0)
        assert np.allclose(lower, -0.625)
        assert np.allclose(upper, 0.625)
        assert np.array_equal(measured[:, 0], truth[1:])
        # Strictly-outside points only; landing exactly on a bound is inside.
        assert violated[:, 0].tolist() == [False, True, True, False, False]

    def test_width_identity_is_exact_by_construction(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=3, steps=400, seed=27)
        model = fit_on_datasets(datasets, _fit_config(spec))
        envelope = UncertaintyEnvelope(
            rmse={"y1": 0.21, "y2": 0.043}, ci95={"y1": 0.011, "y2": 0.0021}
        )
        ds = datasets[0]
        pred, lower, upper, measured, violated = bound_predictions(model, envelope, ds)
        half = np.asarray([envelope.half_width(o) for o in spec.observable_names])
        assert np.array_equal(upper, lower + 2.0 * half)
        assert np.allclose(upper - lower, 2.0 * half, rtol=0, atol=1e-12)
        # The bounds sit around the one prediction path, row 0 excluded.
        assert np.array_equal(pred, predict_series(model, [ds])[0][1:])
        assert np.array_equal(measured, ds.matrix_for(spec.observable_names)[1:])
        assert violated.shape == measured.shape == (ds.row_count - 1, 2)


class TestFrequencyStudy:
    def test_factor_one_matches_direct_run(self):
        # Factor 1's row is read off the cv report it is given, bit for bit,
        # wherever it stands in the list; the other rates are scored anew.
        spec, datasets = linear_corpus(q=2, p=1, n_exp=5, steps=600, seed=28, noise_sd=0.02)
        cfg = _fit_config(spec)
        splits = draw_splits(len(datasets), 2, 3, 5)
        direct, _ = lpocv(datasets, cfg, splits)
        rows = frequency_study(datasets, [3, 1], splits, cfg, direct)
        assert rows[1].factor == 1
        assert rows[1].sample_rate_hz == 100.0
        assert rows[1].r2_test == direct.aggregates["r2_test"]
        assert rows[1].rmse_test == direct.aggregates["rmse_test"]
        assert rows[0].r2_test != direct.aggregates["r2_test"]
        assert rows[1].finite_folds == direct.finite_folds == 3
        assert rows[1].min_svd_rank_used == min(f.svd_rank_used for f in direct.folds) == 3

    @pytest.mark.parametrize("defect", ["duplicate", "constant"])
    def test_rank_deficient_input_recorded_at_every_rate(self, defect):
        # One input a copy of the other, or constant: the fit of every fold,
        # at every rate, keeps one rank fewer than its q + p = 4 columns.
        spec, datasets = linear_corpus(q=2, p=2, n_exp=5, steps=600, seed=28, noise_sd=0.02)
        first, second = spec.input_names
        datasets = [
            with_column(
                ds, second, ds.column(first) if defect == "duplicate" else np.full(ds.row_count, 0.5)
            )
            for ds in datasets
        ]
        cfg = _fit_config(spec)
        splits = draw_splits(len(datasets), 2, 3, 5)
        direct, _ = lpocv(datasets, cfg, splits)
        assert [f.svd_rank_used for f in direct.folds] == [3, 3, 3]
        rows = frequency_study(datasets, [1, 2, 4], splits, cfg, direct)
        assert [row.min_svd_rank_used for row in rows] == [3, 3, 3]

    def test_scored_full_rate_row_is_kept(self):
        # Given cv's report, the study keeps its row and scores only the
        # decimated rates, each under the report's config (here one input of
        # two), whatever the order of the factors.
        spec, datasets = linear_corpus(q=2, p=2, n_exp=5, steps=600, seed=28, noise_sd=0.02)
        cfg = replace(_fit_config(spec), inputs=spec.input_names[:1])
        splits = draw_splits(len(datasets), 2, 3, 5)
        full_rate, _ = lpocv(datasets, cfg, splits)
        rows = frequency_study(datasets, [1, 3], splits, cfg, full_rate)
        slowed, _ = lpocv([decimate(ds, 3) for ds in datasets], cfg, splits)
        assert rows[1].r2_test == slowed.aggregates["r2_test"]
        assert rows[1].rmse_test == slowed.aggregates["rmse_test"]
        assert frequency_study(datasets, [3, 1], splits, cfg, full_rate) == rows[::-1]

    def test_decimated_rate_recorded(self):
        # Factors without 1 need only the config, no full-rate report.
        spec, datasets = linear_corpus(q=2, p=1, n_exp=4, steps=600, seed=29)
        splits = draw_splits(len(datasets), 1, 2, 0)
        rows = frequency_study(datasets, [2], splits, _fit_config(spec))
        assert rows[0].sample_rate_hz == 50.0
        assert decimate(datasets[0], 2).row_count == 300

    def test_factor_one_without_a_report_is_refused(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=4, steps=600, seed=29)
        splits = draw_splits(len(datasets), 1, 2, 0)
        with pytest.raises(ValueError, match="factor 1 is read off a full-rate cv report"):
            frequency_study(datasets, [2, 1], splits, _fit_config(spec))
