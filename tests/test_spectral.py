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
    pulse_spectra,
    segment_pulses,
)
from dedsid.validation import predict_series


class TestSegmentation:
    def test_hand_case(self):
        segs = segment_pulses(np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0]))
        assert segs.tolist() == [[1, 3], [4, 5]]
        assert segs.dtype.kind == "i"

    def test_all_on_and_all_off(self):
        assert segment_pulses(np.zeros(5)).shape == (0, 2)
        assert segment_pulses(np.full(5, 3.0)).tolist() == [[0, 5]]

    def test_boundaries_at_both_ends(self):
        assert segment_pulses(np.array([1.0, 0.0, 1.0])).tolist() == [[0, 1], [2, 3]]

    @given(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=1, max_size=60).map(np.asarray)
    )
    def test_partition_property(self, power):
        segs = segment_pulses(power)
        assert segs.shape == (len(segs), 2)
        covered = np.zeros(power.size, dtype=bool)
        for start, end in segs:
            # Maximal runs: strictly positive inside, non-positive neighbors.
            assert start < end
            assert np.all(power[start:end] > 0)
            if start > 0:
                assert power[start - 1] == 0
            if end < power.size:
                assert power[end] == 0
            assert not covered[start:end].any()
            covered[start:end] = True
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


def measured_spectra(datasets):
    """``collect_pulse_spectra`` of each dataset's ``m`` column, cut at ``power``."""
    return collect_pulse_spectra(datasets, "power", [ds.column("m") for ds in datasets])


class TestPulseSpectra:
    def test_buckets_by_exact_count(self):
        ds = pulsed_dataset(seed=1)
        segs = segment_pulses(ds.column("power"))
        buckets = pulse_spectra([ds.column("m")], [segs], ds.sample_rate_hz)
        for count, spec in buckets.items():
            assert spec.sample_count == count
            assert spec.length_s == pytest.approx(count / 100.0)
            assert spec.frequencies_hz.size == count // 2 + 1
            assert spec.magnitude.size == count // 2 + 1
        total = sum(s.pulses_averaged for s in buckets.values())
        assert total == np.count_nonzero(np.diff(segs, axis=1) >= MIN_SEGMENT_SAMPLES)

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
        datasets = [pulsed_dataset(seed=s) for s in (seed, seed + 10, seed + 20)]
        series = [ds.column("m") for ds in datasets]
        segments = [segment_pulses(ds.column("power")) for ds in datasets]
        got = pulse_spectra(series, segments, 100.0)
        alone = [pulse_spectra([v], [s], 100.0) for v, s in zip(series, segments)]
        assert any(sum(count in a for a in alone) > 1 for count in got)  # buckets pool series
        self._assert_identical(got, pulse_spectra_per_pulse(series, segments, 100.0))

    @given(
        on=st.lists(st.lists(st.booleans(), min_size=1, max_size=300), min_size=1, max_size=3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_any_pulse_pattern_matches_per_pulse_oracle(self, on, seed):
        rng = np.random.default_rng(seed)
        series = [rng.normal(size=len(o)) * 10.0 ** rng.integers(-3, 4) for o in on]
        segments = [segment_pulses(np.asarray(o, dtype=float)) for o in on]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SegmentSkippedWarning)
            got = pulse_spectra(series, segments, 37.0)
        self._assert_identical(got, pulse_spectra_per_pulse(series, segments, 37.0))

    def test_short_segments_skipped_with_warning(self):
        power = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
        datasets = [
            make_dataset(
                np.column_stack([power, np.arange(11.0) * k]),
                names=["power", "m"],
                kinds=["input", "observable"],
            )
            for k in (1.0, 2.0)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            buckets = measured_spectra(datasets)
        assert [str(w.message) for w in caught] == [
            "4 of 6 pulses have fewer than 4 samples; skipped"
        ]
        assert caught[0].category is SegmentSkippedWarning
        assert list(buckets) == [5]
        assert buckets[5].pulses_averaged == 2

    def test_averaging_over_equal_lengths(self):
        power = np.zeros(40)
        power[5:10] = 1.0
        power[20:25] = 1.0
        values = np.zeros(40)
        values[5:10] = [1.0, 2.0, 3.0, 2.0, 1.0]
        values[20:25] = [2.0, 4.0, 6.0, 4.0, 2.0]
        buckets = pulse_spectra([values], [segment_pulses(power)], 100.0)
        spec = buckets[5]
        assert spec.pulses_averaged == 2
        a = amplitude_spectrum(values[5:10])
        b = amplitude_spectrum(values[20:25])
        assert np.allclose(spec.magnitude, (a + b) / 2.0)

    def test_merge_weights_by_pulse_count(self):
        # Pooling two experiments averages each bucket over all its pulses:
        # each experiment's own average, weighted by its pulse count.
        ds1 = pulsed_dataset(seed=2)
        ds2 = pulsed_dataset(seed=3)
        merged = measured_spectra([ds1, ds2])
        segs1, segs2 = measured_spectra([ds1]), measured_spectra([ds2])
        shared = set(segs1) & set(segs2)
        assert shared
        assert set(merged) == set(segs1) | set(segs2)
        for count in shared:
            w1, w2 = segs1[count].pulses_averaged, segs2[count].pulses_averaged
            expected = (segs1[count].magnitude * w1 + segs2[count].magnitude * w2) / (w1 + w2)
            assert np.allclose(merged[count].magnitude, expected, rtol=1e-14, atol=0)
            assert merged[count].pulses_averaged == w1 + w2

    def test_no_datasets_no_buckets(self):
        assert collect_pulse_spectra([], "power", []) == {}


class TestSpectrogram:
    def _buckets(self, seed=4):
        return measured_spectra([pulsed_dataset(seed=seed)])

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
        buckets = measured_spectra([pulsed_dataset(seed=5)])
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
        sg = build_spectrogram(measured_spectra([ds]), cap_hz=20.0)
        assert compare_spectrograms(sg, sg) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        from dataclasses import replace

        ds = pulsed_dataset(seed=7)
        sg = build_spectrogram(measured_spectra([ds]), cap_hz=20.0)
        scaled = replace(sg, intensity=sg.intensity * 0.37)
        assert compare_spectrograms(sg, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        buckets = measured_spectra([pulsed_dataset(seed=8)])
        a = build_spectrogram(buckets, grid=(10, 10), cap_hz=20.0)
        b = build_spectrogram(buckets, grid=(10, 11), cap_hz=20.0)
        with pytest.raises(GridMismatch):
            compare_spectrograms(a, b)

    def test_zero_surface_scores_zero(self):
        from dataclasses import replace

        ds = pulsed_dataset(seed=9)
        sg = build_spectrogram(measured_spectra([ds]), cap_hz=20.0)
        zero = replace(sg, intensity=np.zeros_like(sg.intensity))
        assert compare_spectrograms(sg, zero) == 0.0

    def test_model_series_keeps_measured_segmentation(self):
        spec, datasets = linear_corpus(q=1, p=1, n_exp=3, steps=2500, seed=30)
        cfg = FitConfig(inputs=spec.input_names, observables=spec.observable_names)
        model = fit_on_datasets(datasets, cfg)
        obs, power = spec.observable_names[0], spec.input_names[0]
        predictions = predict_series(model, datasets, "rollout")
        measured = collect_pulse_spectra(datasets, power, [ds.column(obs) for ds in datasets])
        predicted = collect_pulse_spectra(datasets, power, [p[:, 0] for p in predictions])
        assert set(measured) == set(predicted)
        for count, spectrum in measured.items():
            assert predicted[count].pulses_averaged == spectrum.pulses_averaged
        sg_m = build_spectrogram(measured, cap_hz=50.0)
        sg_p = build_spectrogram(predicted, cap_hz=50.0)
        assert compare_spectrograms(sg_m, sg_p) > 0.99

    def test_series_cut_at_the_power_channel(self):
        # The series is transformed, not any column of the dataset, and it is
        # cut where the dataset's power channel is on.
        ds = pulsed_dataset(seed=5)
        series = np.cos(np.arange(ds.row_count) / 7.0)
        segments = [segment_pulses(ds.column("power"))]
        got = collect_pulse_spectra([ds], "power", [series])
        TestPulseSpectra._assert_identical(
            got, pulse_spectra_per_pulse([series], segments, ds.sample_rate_hz)
        )
