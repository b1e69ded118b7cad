"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` and in
captured output on failure) and then asserts, so a red run names exactly which
guarantee broke. Corpora are seeded and frozen; expected values were produced
by independent prototypes before the assertions were written.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import dedsid
from dedsid.artifacts import to_plain
from dedsid.config import FitConfig
from dedsid.dataset import impute_off_state
from dedsid.dmdc import StateSpaceModel, build_snapshots, fit
from dedsid.plant import (
    PlantSpec,
    gaussian_inputs,
    generic_channels,
    make_demo_experiments,
    random_stable_plant,
    simulate,
)
from dedsid.spectral import (
    amplitude_spectrum,
    build_spectrogram,
    collect_pulse_spectra,
    compare_spectrograms,
    segment_pulses,
)
from dedsid.validation import (
    UncertaintyEnvelope,
    bound_predictions,
    frequency_study,
    predict_series,
    run_lpocv,
)
from dedsid.vif import select_features

from helpers import (
    fit_on_datasets,
    linear_corpus,
    make_dataset,
    parseval_gap,
    pulse_train_inputs,
    throughput_us_per_point,
    unit_variance_plant,
    wasserstein_1d,
)


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_01_exact_recovery_on_clean_linear_plants():
    # 20 seeded random stable plants spanning small and wide input counts;
    # noise-free data under white-noise excitation must give back the exact
    # operators, not merely a good predictor.
    t0 = time.perf_counter()
    combos = list(itertools.product([2, 3, 5], [1, 2, 21]))
    worst_a = worst_b = 0.0
    for i in range(20):
        q, p = combos[i % len(combos)]
        spec = random_stable_plant(q, p, seed=i, radius=0.9)
        inputs = gaussian_inputs(list(spec.input_names), 1000, 100.0, seed=1000 + i)
        ds = simulate(spec, inputs).dataset
        model = fit(build_snapshots([ds], list(spec.input_names), list(spec.observable_names)))
        worst_a = max(worst_a, np.linalg.norm(model.A - spec.A) / np.linalg.norm(spec.A))
        worst_b = max(worst_b, np.linalg.norm(model.B - spec.B) / np.linalg.norm(spec.B))
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-6 and worst_b <= 1e-6 and elapsed < 10.0
    _criterion(
        1,
        "exact recovery on clean linear plants",
        ok,
        f"worst relative error A {worst_a:.2e}, B {worst_b:.2e}, {elapsed:.2f} s",
    )


NOISE_SD = 0.05


def test_02_noise_floor_consistency():
    # With unit-variance observables and observation noise of 0.05, the
    # cross-validated test RMSE should land on the noise floor (within 15%)
    # and the fit should still explain nearly all the variance.
    t0 = time.perf_counter()
    base = random_stable_plant(3, 2, seed=2, radius=0.8)
    ref = pulse_train_inputs(base.input_names, 3000, 100.0, seed=777, experiment_id="ref")
    plant = replace(unit_variance_plant(base, ref), noise_sd=np.full(3, NOISE_SD))
    rng = np.random.default_rng(4242)
    datasets = []
    for i in range(8):
        exp = f"n{i:02d}"
        inputs = pulse_train_inputs(
            plant.input_names, 3000, 100.0, seed=int(rng.integers(0, 2**31 - 1)), experiment_id=exp
        )
        datasets.append(
            simulate(plant, inputs, seed=int(rng.integers(0, 2**31 - 1)), experiment_id=exp).dataset
        )
    cfg = FitConfig(inputs=plant.input_names, observables=plant.observable_names)
    report, envelope = run_lpocv(datasets, cfg, p=3, repeats=10, seed=0)
    elapsed = time.perf_counter() - t0

    lo, hi = 0.85 * NOISE_SD, 1.15 * NOISE_SD
    rmses = {obs: envelope.rmse[obs] for obs in plant.observable_names}
    r2s = {obs: report.aggregates["r2_test"][obs].mean for obs in plant.observable_names}
    ok = (
        all(lo <= v <= hi for v in rmses.values())
        and all(v > 0.95 for v in r2s.values())
        and elapsed < 60.0
    )
    _criterion(
        2,
        "test RMSE matches the injected noise floor",
        ok,
        f"rmse {[f'{v:.4f}' for v in rmses.values()]} target [{lo:.4f}, {hi:.4f}], "
        f"min r2 {min(r2s.values()):.4f}, {elapsed:.1f} s",
    )


def test_03_collinearity_screening_with_planted_dependencies():
    # Ten standardized features hiding three exact linear dependencies: a
    # complementary flag pair and two noise mixtures. Screening must remove
    # exactly one feature per dependency, breaking the flag pair first, and
    # leave a full-rank set with every score under the acceptance bar.
    rng = np.random.default_rng(7)
    n = 4000
    flag_a = (rng.random(n) < 0.5).astype(float)
    noise = rng.standard_normal((n, 6))
    raw = np.column_stack(
        [flag_a, 1.0 - flag_a, noise, noise[:, 0] + noise[:, 1], noise[:, 2] - noise[:, 3]]
    )
    names = ("flag_a", "flag_b", "n0", "n1", "n2", "n3", "n4", "n5", "mix_ab", "mix_cd")
    x = (raw - raw.mean(axis=0)) / raw.std(axis=0)

    report = select_features(x, names)
    again = select_features(x, names)
    removed = [it.excluded_feature for it in report.iterations]
    ok = (
        report.surviving_features == ("flag_b", "n1", "n3", "n4", "n5", "mix_ab", "mix_cd")
        and removed[0] in ("flag_a", "flag_b")
        and all(np.isfinite(v) and v < 5.0 for v in report.final_vif.values())
        and report.final_rank == 7
        and to_plain(report) == to_plain(again)
    )
    _criterion(
        3,
        "collinearity screening drops planted dependencies",
        ok,
        f"removed {removed}, survivors {len(report.surviving_features)}, "
        f"max final VIF {max(report.final_vif.values()):.2f}, rank {report.final_rank}",
    )


def test_04_distance_is_a_translation_invariant_metric():
    rng = np.random.default_rng(2024)

    # Shifting a sample by c moves it exactly |c| of earth; shifting both
    # samples moves nothing.
    worst_shift = worst_invariance = 0.0
    for _ in range(50):
        a = rng.standard_normal(rng.integers(2, 200)) * rng.uniform(0.1, 5.0)
        b = rng.standard_normal(rng.integers(2, 200)) * rng.uniform(0.1, 5.0)
        c = rng.uniform(-20.0, 20.0)
        worst_shift = max(worst_shift, abs(wasserstein_1d(a, a + c) - abs(c)))
        worst_invariance = max(
            worst_invariance, abs(wasserstein_1d(a + c, b + c) - wasserstein_1d(a, b))
        )

    # A point mass at the center of a uniform spread is 1/4 away on average.
    n = 10_000
    delta_gap = abs(wasserstein_1d(np.full(n, 0.5), np.linspace(0.0, 1.0, n)) - 0.25)

    # Metric axioms over random triples.
    worst_symmetry = 0.0
    triangle_ok = True
    for _ in range(1000):
        a, b, c = (
            rng.standard_normal(rng.integers(2, 40)) * rng.uniform(0.1, 3.0) for _ in range(3)
        )
        dab, dba = wasserstein_1d(a, b), wasserstein_1d(b, a)
        worst_symmetry = max(worst_symmetry, abs(dab - dba))
        if wasserstein_1d(a, c) > dab + wasserstein_1d(b, c) + 1e-12:
            triangle_ok = False

    ok = (
        worst_shift < 1e-9
        and worst_invariance < 1e-9
        and delta_gap < 1e-3
        and worst_symmetry < 1e-12
        and triangle_ok
    )
    _criterion(
        4,
        "distribution distance is a translation-invariant metric",
        ok,
        f"shift err {worst_shift:.1e}, invariance err {worst_invariance:.1e}, "
        f"delta-vs-uniform gap {delta_gap:.1e}, symmetry err {worst_symmetry:.1e}, "
        f"triangle {'held' if triangle_ok else 'violated'}",
    )


def test_05_envelope_coverage_and_width():
    # One-sigma bounds around a zero predictor against standard normal truth:
    # coverage must sit at the gaussian 68.3% (within 3 points over 1e5 draws)
    # and the band width must equal twice rmse+ci by construction.
    model = StateSpaceModel(
        A=np.zeros((1, 1)),
        B=np.zeros((1, 1)),
        observable_names=("y1",),
        input_names=("u1",),
        sample_rate_hz=100.0,
        svd_rank_used=1,
    )
    envelope = UncertaintyEnvelope(rmse={"y1": 1.0}, ci95={"y1": 1e-6})
    n = 100_000
    truth = np.random.default_rng(12345).standard_normal((n, 1))
    ds = make_dataset(
        np.column_stack([np.concatenate([[0.0], truth[:, 0]]), np.zeros(n + 1)]),
        names=["y1", "u1"],
        kinds=["observable", "input"],
    )
    _, lower, upper, _, violated = bound_predictions(model, envelope, ds, "rollout")
    coverage = 1.0 - int(violated.sum()) / n
    half = envelope.rmse["y1"] + envelope.ci95["y1"]
    width_exact = np.array_equal(upper, lower + 2.0 * half)
    width_close = np.allclose(upper - lower, 2.0 * half, rtol=0.0, atol=1e-12)
    ok = 0.653 <= coverage <= 0.713 and width_exact and width_close
    _criterion(
        5,
        "uncertainty envelope covers one sigma",
        ok,
        f"coverage {coverage:.4f} in [0.653, 0.713], width identity "
        f"{'exact' if width_exact else 'BROKEN'}",
    )


def test_06_recording_rate_knee():
    # A plant with a 0.1 s time constant sampled at 100 Hz: quality must not
    # improve as the rate drops (within aggregation slack) and must fall off a
    # cliff no earlier than expected for pulses on a 0.05 s grid.
    t0 = time.perf_counter()
    spec = PlantSpec(
        A=np.array([[np.exp(-0.1)]]),
        B=np.array([[0.8, 0.3]]),
        input_channels=generic_channels("u", "input", 2),
        observable_channels=generic_channels("y", "observable", 1),
        noise_sd=np.zeros(1),
    )
    rng = np.random.default_rng(100)
    datasets = []
    for i in range(10):
        exp = f"f{i:02d}"
        inputs = pulse_train_inputs(
            spec.input_names, 3000, 100.0, seed=int(rng.integers(0, 2**31 - 1)), experiment_id=exp
        )
        datasets.append(simulate(spec, inputs, experiment_id=exp).dataset)
    cfg = FitConfig(inputs=spec.input_names, observables=spec.observable_names)
    rows = frequency_study(datasets, cfg, factors=(1, 2, 5, 10, 25, 50), p=3, repeats=10, seed=0)
    elapsed = time.perf_counter() - t0

    r2 = [row.r2_test["y1"].mean for row in rows]
    rates = [row.sample_rate_hz for row in rows]
    monotone = all(r2[i + 1] <= r2[i] + 0.02 for i in range(len(r2) - 1))
    knee_rate = next((rates[i] for i in range(len(r2)) if r2[0] - r2[i] > 0.05), None)
    ok = monotone and knee_rate is not None and knee_rate <= 20.0 and elapsed < 300.0
    _criterion(
        6,
        "quality knee under slower recording rates",
        ok,
        f"r2 by rate {[f'{v:.3f}@{int(r)}Hz' for v, r in zip(r2, rates)]}, "
        f"knee at {knee_rate} Hz, {elapsed:.1f} s",
    )


def test_07_spectral_closure():
    # Noise-free pulsed corpus: the model's rollout must reproduce the
    # measured pulse-resolved spectra, every segment must conserve energy through
    # the transform, and the frequency axis must stop at Nyquist.
    spec, datasets = linear_corpus(q=1, p=1, n_exp=4, steps=3000, seed=77)
    cfg = FitConfig(inputs=spec.input_names, observables=spec.observable_names)
    model = fit_on_datasets(datasets, cfg)
    obs, power = spec.observable_names[0], spec.input_names[0]
    predictions = predict_series(model, datasets, "rollout")
    measured = collect_pulse_spectra(datasets, power, [ds.column(obs) for ds in datasets])
    predicted = collect_pulse_spectra(datasets, power, [p[:, 0] for p in predictions])
    similarity = compare_spectrograms(
        build_spectrogram(measured, cap_hz=60.0), build_spectrogram(predicted, cap_hz=60.0)
    )

    worst_gap, segments = 0.0, 0
    for ds in datasets:
        col = ds.column(obs)
        for start, end in segment_pulses(ds.column(power)):
            if end - start < 4:
                continue
            vals = col[start:end]
            worst_gap = max(worst_gap, parseval_gap(vals, amplitude_spectrum(vals)))
            segments += 1

    surface = build_spectrogram(measured, cap_hz=60.0)
    capped = surface.frequency_axis_hz[-1] == 50.0 and surface.nyquist_hz == 50.0
    ok = similarity > 0.9 and worst_gap < 1e-9 and segments > 0 and capped
    _criterion(
        7,
        "model reproduces measured pulse spectra",
        ok,
        f"similarity {similarity:.6f}, worst energy gap {worst_gap:.1e} over "
        f"{segments} segments, axis capped at {surface.frequency_axis_hz[-1]:.0f} Hz",
    )


def test_08_throughput():
    fit_us, rollout_us = throughput_us_per_point(1_000_000, seed=0)
    ok = fit_us <= 25.0 and rollout_us <= 150.0
    _criterion(
        8,
        "fit and rollout throughput",
        ok,
        f"fit {fit_us:.2f} us/pt (cap 25), rollout {rollout_us:.2f} us/pt (cap 150) "
        "at 1e6 points",
    )


def test_09_pipeline_determinism(tmp_path):
    # The full CLI pipeline, then the recording-rate study (whose batched
    # cross-validation runs once per rate), rerun with the same config and
    # seed must lay down byte-identical artifacts, subprocess to subprocess.
    # The child runs in tmp_path, so a relative PYTHONPATH would miss the
    # package: put its absolute source root first.
    src = str(Path(dedsid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "dedsid.cli", *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def tree(root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    corpus = tmp_path / "corpus"
    run("synth", "--out", str(corpus), "--experiments", "6", "--seed", "0")
    cfg = corpus / "config.json"
    run("pipeline", "--config", str(cfg))
    run("freq-study", "--config", str(cfg))
    first = tree(corpus / "out")
    run("pipeline", "--config", str(cfg))
    run("freq-study", "--config", str(cfg))
    second = tree(corpus / "out")
    assert "freq_study.json" in first and "freq_study.csv" in first
    identical = first == second
    ok = identical and len(first) > 0
    _criterion(
        9,
        "pipeline artifacts are byte-identical across reruns",
        ok,
        f"{len(first)} artifacts compared, {'identical' if identical else 'DIFFER'}",
    )


def test_10_imputation_recovers_gated_dropout():
    # 10% of working-distance readings collapse to the off-state sentinel while
    # the beam is on; bridging them must strictly improve held-out quality on
    # that observable under identical folds.
    spec, raw = make_demo_experiments(8, seed=3, dropout_probability=0.10)
    imputed = [impute_off_state(ds, "working_distance_mm", -1.0, "power_w") for ds in raw]
    sentinel_frac = float(
        np.mean([np.mean(ds.column("working_distance_mm") == -1.0) for ds in raw])
    )
    cfg = FitConfig(
        inputs=("x_mm", "y_mm", "z_mm", "power_w", "scan_rate_mm_min", "heading_deg", "contour_flag"),
        observables=tuple(spec.observable_names),
    )
    r2_raw = run_lpocv(raw, cfg, p=3, repeats=10, seed=0)[0].aggregates["r2_test"][
        "working_distance_mm"
    ].mean
    r2_imputed = run_lpocv(imputed, cfg, p=3, repeats=10, seed=0)[0].aggregates["r2_test"][
        "working_distance_mm"
    ].mean
    ok = sentinel_frac > 0.0 and r2_imputed > r2_raw
    _criterion(
        10,
        "off-state imputation improves held-out quality",
        ok,
        f"r2 raw {r2_raw:.4f} -> imputed {r2_imputed:.4f}, "
        f"sentinel fraction {sentinel_frac:.3f}",
    )
