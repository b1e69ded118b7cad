from dataclasses import replace

import numpy as np
import pytest
from helpers import fit_on_datasets, linear_corpus, make_dataset, r2, rmse

from dedsid.artifacts import to_plain
from dedsid.config import EVAL_MODES, FitConfig
from dedsid.dataset import decimate
from dedsid.dmdc import StateSpaceModel
from dedsid.errors import ConstantActual, TooFewExperiments
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
        ids = [f"e{i}" for i in range(8)]
        splits = draw_splits(ids, p=3, repeats=10, seed=0)
        assert len(splits) == 10
        for train, test in splits:
            assert len(test) == 3
            assert len(train) == 5
            assert set(train).isdisjoint(test)
            assert set(train) | set(test) == set(ids)
            assert list(train) == [i for i in ids if i in set(train)]

    def test_seeded_determinism(self):
        ids = [f"e{i}" for i in range(6)]
        a = draw_splits(ids, 2, 5, seed=3)
        b = draw_splits(ids, 2, 5, seed=3)
        c = draw_splits(ids, 2, 5, seed=4)
        assert a == b
        assert a != c

    def test_fresh_draw_each_repeat(self):
        ids = [f"e{i}" for i in range(10)]
        splits = draw_splits(ids, 3, 12, seed=1)
        assert len({test for _, test in splits}) > 1

    def test_too_few_experiments(self):
        with pytest.raises(TooFewExperiments):
            draw_splits(["a", "b"], p=2, repeats=1, seed=0)


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
        pred = predict_series(model, [datasets[0]], "rollout")[0]
        truth = datasets[0].matrix_for(spec.observable_names)
        assert np.allclose(pred, truth, atol=1e-6)

    def test_one_step_mode(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=3, steps=600, seed=23)
        model = fit_on_datasets(datasets, _fit_config(spec))
        pred = predict_series(model, [datasets[1]], "one-step")[0]
        truth = datasets[1].matrix_for(spec.observable_names)
        assert np.allclose(pred, truth, atol=1e-6)


def per_step_prediction(model, ds, eval_mode):
    """One dataset at a time through the per-step loop, for ``predict_series``."""
    measured = ds.matrix_for(model.observable_names)
    y, u = measured, ds.matrix_for(model.input_names)
    if model.input_standardizer is not None:
        u = model.input_standardizer.transform_matrix(u)
    if model.observable_standardizer is not None:
        y = model.observable_standardizer.transform_matrix(y)
    out = np.empty_like(y)
    state = out[0] = y[0]
    for t in range(len(y) - 1):
        state = model.A @ (state if eval_mode == "rollout" else y[t]) + model.B @ u[t]
        out[t + 1] = state
    if model.observable_standardizer is not None:
        out = model.observable_standardizer.invert_matrix(out)
    out[0] = measured[0]
    return out


class TestPredictSeries:
    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("eval_mode", ["rollout", "one-step"])
    def test_batch_of_unequal_lengths_matches_per_step_loop(self, eval_mode, standardize):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=4, steps=600, seed=27, noise_sd=0.05)
        model = fit_on_datasets(datasets, _fit_config(spec, standardize))
        batch = [
            datasets[0],
            decimate(datasets[1], 3),
            datasets[2].with_data(datasets[2].data[:2]),
            datasets[3].with_data(datasets[3].data[:450]),
        ]
        for ds, pred in zip(batch, predict_series(model, batch, eval_mode)):
            expected = per_step_prediction(model, ds, eval_mode)
            assert pred.shape == expected.shape == (ds.row_count, 2)
            assert np.array_equal(pred[0], expected[0])
            assert np.max(np.abs(pred - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_unknown_eval_mode_is_a_value_error(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=4, steps=300, seed=22)
        config = replace(_fit_config(spec), eval_mode="sideways")
        model = fit_on_datasets(datasets, _fit_config(spec))
        with pytest.raises(ValueError, match="eval_mode must be one of"):
            predict_series(model, datasets, "sideways")
        with pytest.raises(ValueError, match="eval_mode must be one of"):
            run_lpocv(datasets, config, p=1, repeats=1, seed=0)

    def test_no_datasets_no_predictions(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=3, steps=800, seed=22)
        assert predict_series(fit_on_datasets(datasets, _fit_config(spec)), []) == []


class TestColumnOrder:
    @pytest.mark.parametrize("eval_mode", EVAL_MODES)
    def test_results_independent_of_column_order(self, eval_mode):
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
        config = replace(_fit_config(spec), eval_mode=eval_mode)
        model = fit_on_datasets(datasets, config)
        for a, b in zip(
            predict_series(model, datasets, eval_mode), predict_series(model, shuffled, eval_mode)
        ):
            assert np.array_equal(a, b)
        got = [to_plain(run_lpocv(d, config, p=2, repeats=3, seed=4)) for d in (datasets, shuffled)]
        assert got[0] == got[1]


class TestLpocv:
    def test_noise_free_scores_near_perfect(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=6, steps=900, seed=24)
        report, envelope = run_lpocv(datasets, _fit_config(spec), p=2, repeats=6, seed=0)
        for obs in spec.observable_names:
            assert report.aggregates["r2_test"][obs].mean > 0.999
            assert envelope.rmse[obs] < 1e-4

    def test_train_tends_to_beat_test_under_noise(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=8, steps=700, seed=25, noise_sd=0.05)
        report, _ = run_lpocv(datasets, _fit_config(spec), p=3, repeats=10, seed=1)
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
        a, env_a = run_lpocv(datasets, _fit_config(spec), p=2, repeats=4, seed=7)
        b, env_b = run_lpocv(datasets, _fit_config(spec), p=2, repeats=4, seed=7)
        assert to_plain(a) == to_plain(b)
        assert to_plain(env_a) == to_plain(env_b)

    def test_envelope_from_dict_round_trip(self):
        env = UncertaintyEnvelope(rmse={"y1": 0.5}, ci95={"y1": 0.125})
        back = UncertaintyEnvelope(**to_plain(env))
        assert back.rmse == env.rmse and back.ci95 == env.ci95
        assert back.half_width("y1") == 0.625


class TestLpocvAgainstRows:
    """Fold metrics from per-experiment sums against the rows they summarize."""

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("eval_mode", ["rollout", "one-step"])
    def test_fold_metrics_match_row_oracle(self, eval_mode, standardize):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=6, steps=500, seed=30, noise_sd=0.05)
        # Unequal lengths, so the padding shows if it leaks into a sum.
        datasets = [ds.with_data(ds.data[: 200 + 60 * i]) for i, ds in enumerate(datasets)]
        config = replace(_fit_config(spec, standardize), eval_mode=eval_mode)
        report, _ = run_lpocv(datasets, config, p=2, repeats=4, seed=3)
        by_id = {ds.experiment_id: ds for ds in datasets}
        splits = draw_splits(list(by_id), 2, 4, 3)
        for fold, (train_ids, test_ids) in zip(report.folds, splits):
            model = fit_on_datasets([by_id[i] for i in train_ids], config)
            assert fold.svd_rank_used == model.svd_rank_used == 4
            assert fold.condition_number == model.condition_number >= 1.0
            assert fold.spectral_radius == np.max(np.abs(np.linalg.eigvals(model.A)))
            for ids, r2_map, rmse_map in (
                (train_ids, fold.r2_train, fold.rmse_train),
                (test_ids, fold.r2_test, fold.rmse_test),
            ):
                side = [by_id[i] for i in ids]
                actual = np.concatenate([ds.matrix_for(spec.observable_names)[1:] for ds in side])
                predicted = np.concatenate(
                    [per_step_prediction(model, ds, eval_mode)[1:] for ds in side]
                )
                for j, obs in enumerate(spec.observable_names):
                    assert r2_map[obs] == pytest.approx(r2(actual[:, j], predicted[:, j]), rel=1e-9)
                    assert rmse_map[obs] == pytest.approx(
                        rmse(actual[:, j], predicted[:, j]), rel=1e-9
                    )

    @pytest.mark.filterwarnings("ignore::dedsid.errors.DegenerateChannelWarning")
    @pytest.mark.filterwarnings("ignore::dedsid.errors.RankDeficiencyWarning")
    def test_constant_actual_side_rejected(self):
        spec, datasets = linear_corpus(q=2, p=2, n_exp=4, steps=300, seed=31)
        name = spec.observable_names[0]
        flat = [ds.with_column(name, np.full(ds.row_count, 2.0)) for ds in datasets]
        with pytest.raises(ConstantActual):
            run_lpocv(flat, _fit_config(spec), p=1, repeats=1, seed=0)


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
            self._zero_model(), envelope, ds, "rollout"
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
        pred, lower, upper, measured, violated = bound_predictions(model, envelope, ds, "rollout")
        half = np.asarray([envelope.half_width(o) for o in spec.observable_names])
        assert np.array_equal(upper, lower + 2.0 * half)
        assert np.allclose(upper - lower, 2.0 * half, rtol=0, atol=1e-12)
        # The bounds sit around the one prediction path, row 0 excluded.
        assert np.array_equal(pred, predict_series(model, [ds])[0][1:])
        assert np.array_equal(measured, ds.matrix_for(spec.observable_names)[1:])
        assert violated.shape == measured.shape == (ds.row_count - 1, 2)

    def test_predictions_follow_eval_mode(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=3, steps=400, seed=27, noise_sd=0.05)
        model = fit_on_datasets(datasets, _fit_config(spec))
        envelope = UncertaintyEnvelope(rmse={"y1": 0.2, "y2": 0.04}, ci95={"y1": 0.0, "y2": 0.0})
        ds = datasets[1]
        by_mode = {}
        for mode in EVAL_MODES:
            by_mode[mode] = bound_predictions(model, envelope, ds, mode)[0]
            assert np.array_equal(by_mode[mode], predict_series(model, [ds], mode)[0][1:])
        assert not np.array_equal(by_mode["rollout"], by_mode["one-step"])


class TestFrequencyStudy:
    def test_factor_one_matches_direct_run(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=5, steps=600, seed=28, noise_sd=0.02)
        cfg = _fit_config(spec)
        rows = frequency_study(datasets, cfg, factors=[1, 3], p=2, repeats=3, seed=5)
        direct, _ = run_lpocv(datasets, cfg, p=2, repeats=3, seed=5)
        assert rows[0].factor == 1
        assert rows[0].sample_rate_hz == 100.0
        for obs in spec.observable_names:
            assert rows[0].r2_test[obs].mean == pytest.approx(
                direct.aggregates["r2_test"][obs].mean, rel=1e-12
            )

    def test_decimated_rate_recorded(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=4, steps=600, seed=29)
        rows = frequency_study(datasets, _fit_config(spec), factors=[2], p=1, repeats=2, seed=0)
        assert rows[0].sample_rate_hz == 50.0
        assert decimate(datasets[0], 2).row_count == 300
