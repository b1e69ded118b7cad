import warnings

import numpy as np
import pytest
from helpers import (
    fit_on_datasets,
    linear_corpus,
    make_dataset,
    parseval_gap,
    pulse_spectra_per_pulse,
)
from hypothesis import given
from hypothesis import strategies as st

from dedsid.config import FitConfig
from dedsid.errors import GridMismatch, InsufficientPulseLengthDiversity, SegmentSkippedWarning
from dedsid.spectral import (
    MIN_SEGMENT_SAMPLES,
    amplitude_spectrum,
    build_spectrogram,
    collect_pulse_spectra,
    compare_spectrograms,
    merge_spectra,
    pulse_spectra,
    segment_pulses,
)
from dedsid.validation import predict_series


class TestSegmentation:
    def test_hand_case(self):
        segs = segment_pulses(np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0]), 100.0)
        assert [(s.start_index, s.end_index) for s in segs] == [(1, 3), (4, 5)]
        assert segs[0].length_s == pytest.approx(0.02)
        assert segs[0].power_level == pytest.approx(1.0)
        assert segs[1].power_level == pytest.approx(2.0)

    def test_all_on_and_all_off(self):
        assert segment_pulses(np.zeros(5), 100.0) == []
        segs = segment_pulses(np.full(5, 3.0), 100.0)
        assert [(s.start_index, s.end_index) for s in segs] == [(0, 5)]

    def test_boundaries_at_both_ends(self):
        segs = segment_pulses(np.array([1.0, 0.0, 1.0]), 10.0)
        assert [(s.start_index, s.end_index) for s in segs] == [(0, 1), (2, 3)]

    @given(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=1, max_size=60).map(np.asarray)
    )
    def test_partition_property(self, power):
        segs = segment_pulses(power, 100.0)
        covered = np.zeros(power.size, dtype=bool)
        for s in segs:
            # Maximal runs: strictly positive inside, non-positive neighbors.
            assert np.all(power[s.start_index : s.end_index] > 0)
            if s.start_index > 0:
                assert power[s.start_index - 1] == 0
            if s.end_index < power.size:
                assert power[s.end_index] == 0
            assert not covered[s.start_index : s.end_index].any()
            covered[s.start_index : s.end_index] = True
        assert np.array_equal(covered, power > 0)


class TestAmplitudeSpectrum:
    def test_pure_tone_amplitude(self):
        n = 64
        t = np.arange(n)
        x = 3.0 * np.sin(2 * np.pi * 4 * t / n)
        amp = amplitude_spectrum(x)
        assert amp[4] == pytest.approx(1.5, rel=1e-9)
        others = np.delete(amp, 4)
        assert np.all(others < 1e-9)

    def test_mean_removed(self):
        x = np.full(16, 5.0)
        assert np.allclose(amplitude_spectrum(x), 0.0, atol=1e-15)

    @given(st.integers(min_value=4, max_value=65), st.integers(min_value=0, max_value=2**31 - 1))
    def test_parseval_identity(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        assert parseval_gap(x, amplitude_spectrum(x)) < 1e-9


def pulsed_dataset(seed=0, steps=3000, rate=100.0):
    rng = np.random.default_rng(seed)
    power = np.zeros(steps)
    pos = 60
    for _ in range(40):
        width = int(rng.choice([5, 10, 15, 20, 30]))
        if pos + width + 10 >= steps:
            break
        power[pos : pos + width] = rng.uniform(0.5, 1.5)
        pos += width + int(rng.choice([5, 10, 15]))
    signal = rng.normal(size=steps) + 3.0 * power
    return make_dataset(
        np.column_stack([power, signal]),
        names=["power", "m"],
        kinds=["input", "observable"],
        rate=rate,
    )


class TestPulseSpectra:
    def test_buckets_by_exact_count(self):
        ds = pulsed_dataset(seed=1)
        segs = segment_pulses(ds.column("power"), ds.sample_rate_hz)
        buckets = pulse_spectra(ds, "m", segs)
        for count, spec in buckets.items():
            assert spec.sample_count == count
            assert spec.length_s == pytest.approx(count / 100.0)
            assert spec.frequencies_hz.size == count // 2 + 1
            assert spec.magnitude.size == count // 2 + 1
        total = sum(s.pulses_averaged for s in buckets.values())
        assert total == len([s for s in segs if s.sample_count >= MIN_SEGMENT_SAMPLES])

    @staticmethod
    def _assert_identical(got, expected):
        assert list(got) == list(expected)
        for count, spec in got.items():
            ref = expected[count]
            assert spec.pulses_averaged == ref.pulses_averaged
            assert (spec.length_s, spec.sample_rate_hz) == (ref.length_s, ref.sample_rate_hz)
            assert np.array_equal(spec.frequencies_hz, ref.frequencies_hz)
            assert np.array_equal(spec.magnitude, ref.magnitude)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_per_pulse_oracle(self, seed):
        ds = pulsed_dataset(seed=seed)
        segs = segment_pulses(ds.column("power"), ds.sample_rate_hz)
        assert max(s.pulses_averaged for s in pulse_spectra(ds, "m", segs).values()) > 1
        self._assert_identical(pulse_spectra(ds, "m", segs), pulse_spectra_per_pulse(ds, "m", segs))

    @given(
        on=st.lists(st.booleans(), min_size=1, max_size=300),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_any_pulse_pattern_matches_per_pulse_oracle(self, on, seed):
        rng = np.random.default_rng(seed)
        power = np.asarray(on, dtype=float)
        ds = make_dataset(
            np.column_stack([power, rng.normal(size=power.size) * 10.0 ** rng.integers(-3, 4)]),
            names=["power", "m"],
            kinds=["input", "observable"],
            rate=37.0,
        )
        segs = segment_pulses(power, ds.sample_rate_hz)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SegmentSkippedWarning)
            got = pulse_spectra(ds, "m", segs)
        self._assert_identical(got, pulse_spectra_per_pulse(ds, "m", segs))

    def test_short_segments_skipped_with_warning(self):
        power = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        ds = make_dataset(
            np.column_stack([power, np.arange(10.0)]),
            names=["power", "m"],
            kinds=["input", "observable"],
        )
        segs = segment_pulses(power, 100.0)
        with pytest.warns(SegmentSkippedWarning):
            buckets = pulse_spectra(ds, "m", segs)
        assert list(buckets) == [5]

    def test_averaging_over_equal_lengths(self):
        power = np.zeros(40)
        power[5:10] = 1.0
        power[20:25] = 1.0
        values = np.zeros(40)
        values[5:10] = [1.0, 2.0, 3.0, 2.0, 1.0]
        values[20:25] = [2.0, 4.0, 6.0, 4.0, 2.0]
        ds = make_dataset(
            np.column_stack([power, values]),
            names=["power", "m"],
            kinds=["input", "observable"],
        )
        buckets = pulse_spectra(ds, "m", segment_pulses(power, 100.0))
        spec = buckets[5]
        assert spec.pulses_averaged == 2
        a = amplitude_spectrum(values[5:10])
        b = amplitude_spectrum(values[20:25])
        assert np.allclose(spec.magnitude, (a + b) / 2.0)

    def test_merge_weights_by_pulse_count(self):
        ds1 = pulsed_dataset(seed=2)
        ds2 = pulsed_dataset(seed=3)
        merged = collect_pulse_spectra([ds1, ds2], "m", "power")
        segs1 = pulse_spectra(ds1, "m", segment_pulses(ds1.column("power"), 100.0))
        segs2 = pulse_spectra(ds2, "m", segment_pulses(ds2.column("power"), 100.0))
        shared = set(segs1) & set(segs2)
        assert shared
        count = next(iter(shared))
        w1, w2 = segs1[count].pulses_averaged, segs2[count].pulses_averaged
        expected = (segs1[count].magnitude * w1 + segs2[count].magnitude * w2) / (w1 + w2)
        assert np.allclose(merged[count].magnitude, expected)
        assert merged[count].pulses_averaged == w1 + w2


class TestSpectrogram:
    def _buckets(self, seed=4):
        ds = pulsed_dataset(seed=seed)
        return collect_pulse_spectra([ds], "m", "power")

    def test_grid_shape_and_normalization(self):
        sg = build_spectrogram(self._buckets(), grid=(32, 48), cap_hz=10.0)
        assert sg.intensity.shape == (32, 48)
        assert sg.pulse_length_axis_s.size == 32
        assert sg.frequency_axis_hz.size == 48
        assert sg.intensity.max() == 1.0
        assert sg.intensity.min() >= 0.0

    def test_cap_clamped_to_nyquist(self):
        sg = build_spectrogram(self._buckets(), cap_hz=500.0)
        assert sg.nyquist_hz == 50.0
        assert sg.display_cap_hz == 50.0
        assert sg.frequency_axis_hz[-1] == 50.0

    def test_requested_cap_kept_below_nyquist(self):
        sg = build_spectrogram(self._buckets(), cap_hz=1.0)
        assert sg.display_cap_hz == 1.0
        assert sg.frequency_axis_hz[-1] == 1.0

    def test_needs_two_buckets(self):
        ds = pulsed_dataset(seed=5)
        buckets = collect_pulse_spectra([ds], "m", "power")
        only_one = {k: v for k, v in list(buckets.items())[:1]}
        with pytest.raises(InsufficientPulseLengthDiversity):
            build_spectrogram(only_one)

    def test_separable_surface_interpolates_exactly(self):
        # Two buckets with linear-in-frequency magnitudes: bilinear
        # interpolation must reproduce the closed form at grid nodes.
        from dedsid.spectral import PulseSpectrum

        def bucket(count):
            freqs = np.fft.rfftfreq(count, d=0.01)
            mag = 1.0 + freqs  # linear in f
            return PulseSpectrum(
                sample_count=count,
                length_s=count / 100.0,
                sample_rate_hz=100.0,
                frequencies_hz=freqs,
                magnitude=mag * (count / 10.0),  # linear in length too
                pulses_averaged=1,
            )

        spectra = {10: bucket(10), 20: bucket(20)}
        sg = build_spectrogram(spectra, grid=(5, 7), cap_hz=5.0)
        ll, ff = np.meshgrid(sg.pulse_length_axis_s, sg.frequency_axis_hz, indexing="ij")
        expected = (1.0 + ff) * (ll * 100.0 / 10.0)
        expected /= expected.max()
        assert np.allclose(sg.intensity, expected, atol=1e-12)

    def test_csv_rows_long_form(self):
        sg = build_spectrogram(self._buckets(), grid=(4, 3), cap_hz=2.0)
        rows = sg.to_csv_rows()
        assert rows.shape == (12, 3)
        assert rows[0, 0] == sg.pulse_length_axis_s[0]
        assert rows[1, 1] == sg.frequency_axis_hz[1]


class TestCompare:
    def test_self_similarity_is_one(self):
        ds = pulsed_dataset(seed=6)
        sg = build_spectrogram(collect_pulse_spectra([ds], "m", "power"), cap_hz=20.0)
        assert compare_spectrograms(sg, sg) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        from dataclasses import replace

        ds = pulsed_dataset(seed=7)
        sg = build_spectrogram(collect_pulse_spectra([ds], "m", "power"), cap_hz=20.0)
        scaled = replace(sg, intensity=sg.intensity * 0.37)
        assert compare_spectrograms(sg, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        ds = pulsed_dataset(seed=8)
        buckets = collect_pulse_spectra([ds], "m", "power")
        a = build_spectrogram(buckets, grid=(10, 10), cap_hz=20.0)
        b = build_spectrogram(buckets, grid=(10, 11), cap_hz=20.0)
        with pytest.raises(GridMismatch):
            compare_spectrograms(a, b)

    def test_zero_surface_scores_zero(self):
        from dataclasses import replace

        ds = pulsed_dataset(seed=9)
        sg = build_spectrogram(collect_pulse_spectra([ds], "m", "power"), cap_hz=20.0)
        zero = replace(sg, intensity=np.zeros_like(sg.intensity))
        assert compare_spectrograms(sg, zero) == 0.0

    def test_values_override_keeps_measured_segmentation(self):
        spec, datasets = linear_corpus(q=1, p=1, n_exp=3, steps=2500, seed=30)
        cfg = FitConfig(inputs=spec.input_names, observables=spec.observable_names)
        model = fit_on_datasets(datasets, cfg)
        obs = spec.observable_names[0]
        predictions = predict_series(model, datasets, "rollout")
        overrides = {ds.experiment_id: p[:, 0] for ds, p in zip(datasets, predictions)}
        measured = collect_pulse_spectra(datasets, obs, spec.input_names[0])
        predicted = collect_pulse_spectra(
            datasets, obs, spec.input_names[0], values_override=overrides
        )
        assert set(measured) == set(predicted)
        sg_m = build_spectrogram(measured, cap_hz=50.0)
        sg_p = build_spectrogram(predicted, cap_hz=50.0)
        assert compare_spectrograms(sg_m, sg_p) > 0.99

    def test_values_override_copies_no_dataset(self, monkeypatch):
        ds = pulsed_dataset(seed=5)
        override = np.cos(np.arange(ds.row_count) / 7.0)
        expected = pulse_spectra(
            ds.with_column("m", override), "m", segment_pulses(ds.column("power"), 100.0)
        )
        monkeypatch.setattr(type(ds), "with_column", None)
        got = collect_pulse_spectra([ds], "m", "power", values_override={ds.experiment_id: override})
        assert got.keys() == expected.keys()
        for count, spectrum in expected.items():
            assert np.array_equal(got[count].magnitude, spectrum.magnitude)
            assert got[count].pulses_averaged == spectrum.pulses_averaged
