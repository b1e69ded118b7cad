import numpy as np
import pytest
from helpers import linear_corpus, make_dataset

from dedsid.artifacts import to_plain
from dedsid.dataset import decimate
from dedsid.dmdc import StateSpaceModel
from dedsid.errors import ConstantActual, DimensionMismatch, TooFewExperiments
from dedsid.validation import (
    FitConfig,
    UncertaintyEnvelope,
    bound_predictions,
    draw_splits,
    fit_on_datasets,
    frequency_study,
    parity_data,
    predict_series,
    r2,
    residual_histogram,
    rmse,
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

    def test_histogram_and_parity(self):
        rng = np.random.default_rng(0)
        actual = rng.normal(size=300)
        predicted = actual + rng.normal(scale=0.1, size=300)
        hist = residual_histogram(actual, predicted, bins=20)
        assert hist.counts.sum() == 300
        par = parity_data(actual, predicted)
        assert par.slope == pytest.approx(1.0, abs=0.05)
        assert par.intercept == pytest.approx(0.0, abs=0.05)


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
        pred = predict_series(model, datasets[0], "rollout")
        truth = datasets[0].matrix_for(spec.observable_names)
        assert np.allclose(pred, truth, atol=1e-6)

    def test_one_step_mode(self):
        spec, datasets = linear_corpus(q=2, p=1, n_exp=3, steps=600, seed=23)
        model = fit_on_datasets(datasets, _fit_config(spec))
        pred = predict_series(model, datasets[1], "one-step")
        truth = datasets[1].matrix_for(spec.observable_names)
        assert np.allclose(pred, truth, atol=1e-6)


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
        truth = np.array([[0.0], [0.7], [-0.7], [0.625], [-0.625]])
        out = bound_predictions(
            self._zero_model(), envelope, [0.0], np.zeros((1, 5)), ground_truth=truth
        )
        assert np.allclose(out.predictions, 0.0)
        assert np.allclose(out.lower, -0.625)
        assert np.allclose(out.upper, 0.625)
        # Strictly-outside points only; landing exactly on a bound is inside.
        assert out.violations["y1"] == ((1, 0.7, 0.625), (2, -0.7, -0.625))

    def test_width_identity_is_exact_by_construction(self):
        rng = np.random.default_rng(1)
        spec, datasets = linear_corpus(q=2, p=1, n_exp=3, steps=400, seed=27)
        model = fit_on_datasets(datasets, _fit_config(spec))
        envelope = UncertaintyEnvelope(
            rmse={"y1": 0.21, "y2": 0.043}, ci95={"y1": 0.011, "y2": 0.0021}
        )
        ds = datasets[0]
        out = bound_predictions(
            model,
            envelope,
            ds.matrix_for(spec.observable_names)[0],
            ds.matrix_for(spec.input_names)[:-1].T,
        )
        half = np.asarray([envelope.half_width(o) for o in spec.observable_names])
        assert np.array_equal(out.upper, out.lower + 2.0 * half)
        assert np.allclose(out.upper - out.lower, 2.0 * half, rtol=0, atol=1e-12)

    def test_truth_shape_checked(self):
        envelope = UncertaintyEnvelope(rmse={"y1": 1.0}, ci95={"y1": 0.0})
        with pytest.raises(DimensionMismatch):
            bound_predictions(
                self._zero_model(), envelope, [0.0], np.zeros((1, 4)), ground_truth=np.zeros((3, 1))
            )


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
