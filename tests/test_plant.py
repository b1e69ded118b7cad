import json
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    load_plant,
    make_dataset,
    pulse_train_inputs,
    simulate_stacking,
    traced_peak,
    unit_variance_plant,
)

from dedsid.dataset import ChannelSpec
from dedsid.errors import CorruptFile, StabilityWarning
from dedsid.plant import (
    DropoutSpec,
    PlantSpec,
    demo_plant,
    gaussian_inputs,
    generic_channels,
    make_demo_experiments,
    random_stable_plant,
    save_plant,
    serpentine_gcode,
    simulate,
    spectral_radius,
)


def tiny_plant(noise_sd=0.0, dropout=None):
    return PlantSpec(
        A=np.array([[0.5, 0.1], [0.0, 0.8]]),
        B=np.array([[1.0], [0.5]]),
        input_channels=generic_channels("u", "input", 1),
        observable_channels=generic_channels("y", "observable", 2),
        noise_sd=np.full(2, float(noise_sd)),
        dropout=dropout,
    )


class TestSimulate:
    def test_matches_recurrence_exactly(self):
        # The per-step loop is the oracle; the chunked kernel sums in another
        # order, so it agrees to rounding. Row 0 and the noiseless dataset
        # columns stay exact copies.
        spec = tiny_plant()
        inputs = gaussian_inputs(["u1"], 50, 100.0, seed=0)
        result = simulate(spec, inputs, y0=[0.3, -0.7], seed=1)
        u = inputs.data
        y = np.zeros((50, 2))
        y[0] = [0.3, -0.7]
        for t in range(1, 50):
            y[t] = spec.A @ y[t - 1] + spec.B @ u[t - 1]
        clean = result.clean_observables
        assert np.max(np.abs(clean - y)) <= 1e-13 * np.max(np.abs(y))
        assert np.array_equal(clean[0], y[0])
        assert np.array_equal(result.dataset.matrix_for(["y1", "y2"]), clean)

    @pytest.mark.parametrize("m", [0, 1])
    def test_empty_and_single_row(self, m):
        spec = tiny_plant()
        inputs = gaussian_inputs(["u1"], m, 100.0, seed=0)
        result = simulate(spec, inputs, y0=[2.0, -1.0], seed=0)
        assert result.clean_observables.shape == (m, 2)
        assert result.dataset.row_count == m
        if m:
            assert np.array_equal(result.clean_observables[0], [2.0, -1.0])

    def test_noise_is_seeded(self):
        spec = tiny_plant(noise_sd=0.1)
        inputs = gaussian_inputs(["u1"], 200, 100.0, seed=0)
        a = simulate(spec, inputs, seed=7).dataset
        b = simulate(spec, inputs, seed=7).dataset
        c = simulate(spec, inputs, seed=8).dataset
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_noise_magnitude(self):
        spec = tiny_plant(noise_sd=0.25)
        inputs = gaussian_inputs(["u1"], 4000, 100.0, seed=2)
        result = simulate(spec, inputs, seed=3)
        resid = result.dataset.matrix_for(["y1", "y2"]) - result.clean_observables
        assert np.allclose(resid.std(axis=0), 0.25, rtol=0.1)

    def test_initial_state(self):
        spec = tiny_plant()
        inputs = gaussian_inputs(["u1"], 10, 100.0, seed=4)
        result = simulate(spec, inputs, y0=[2.0, -1.0], seed=0)
        assert np.array_equal(result.clean_observables[0], [2.0, -1.0])

    @pytest.mark.parametrize(
        "spec, m",
        [
            (tiny_plant(), 300),
            (tiny_plant(0.3), 300),
            (tiny_plant(0.3, DropoutSpec("y2", 0.2, -1.0, gate_channel="u1")), 300),
            (tiny_plant(0.3, DropoutSpec("y2", 0.2, -1.0, gate_channel="u1")), 1),
            (tiny_plant(0.3, DropoutSpec("y2", 0.2, -1.0, gate_channel="u1")), 0),
            (tiny_plant(0.0, DropoutSpec("y1", 0.2, -1.0)), 300),
            (
                replace(
                    random_stable_plant(3, 21, seed=1, noise_sd=0.2),
                    dropout=DropoutSpec("y3", 0.1, -1.0, gate_channel="u4"),
                ),
                5000,
            ),
        ],
    )
    def test_bytes_match_the_stacking_oracle(self, spec, m):
        # Noise and dropout come from one generator in the same order as when
        # the record was stacked from copies. "extra" is an input the plant
        # does not read, carried into the record all the same.
        inputs = gaussian_inputs([*spec.input_names, "extra"], m, 100.0, seed=3)
        y0 = np.linspace(-0.5, 0.5, len(spec.observable_names))
        got = simulate(spec, inputs, y0=y0, seed=9)
        want = simulate_stacking(spec, inputs, y0=y0, seed=9)
        assert got.dataset.channels == want.dataset.channels
        assert got.dataset.data.tobytes() == want.dataset.data.tobytes()
        assert got.clean_observables.tobytes() == want.clean_observables.tobytes()

    def test_peak_memory_below_1_4_records(self):
        # The record is allocated once and noised in place; beside it live
        # only (m, q) arrays: the trajectory, its drive, the noise draw.
        spec = random_stable_plant(3, 21, seed=5, radius=0.9, noise_sd=0.1)
        spec = replace(spec, dropout=DropoutSpec("y2", 0.05, -1.0, gate_channel="u1"))
        inputs = gaussian_inputs(list(spec.input_names), 200_000, 100.0, seed=6)
        record_bytes = 200_000 * (21 + 3) * 8
        assert traced_peak(lambda: simulate(spec, inputs, seed=7)) < 1.4 * record_bytes


class TestDropout:
    def _spec(self, probability):
        return tiny_plant(
            dropout=DropoutSpec(
                channel="y2", probability=probability, sentinel=-1.0, gate_channel="u1"
            )
        )

    def test_fraction_of_gated_rows(self):
        spec = self._spec(0.10)
        rng = np.random.default_rng(5)
        data = np.abs(rng.normal(size=(20_000, 1))) + 0.5
        inputs = make_dataset(data, names=["u1"], kinds=["input"])
        ds = simulate(spec, inputs, seed=6).dataset
        frac = float(np.mean(ds.column("y2") == -1.0))
        assert 0.08 <= frac <= 0.12

    def test_no_dropout_where_gate_off(self):
        spec = self._spec(0.5)
        data = np.zeros((5000, 1))
        data[::2] = 1.0
        inputs = make_dataset(data, names=["u1"], kinds=["input"])
        ds = simulate(spec, inputs, seed=7).dataset
        off_rows = ds.column("u1") == 0.0
        assert not np.any(ds.column("y2")[off_rows] == -1.0)
        assert np.any(ds.column("y2")[~off_rows] == -1.0)

    def test_round_trip_through_plant_file(self, tmp_path):
        spec = self._spec(0.25)
        save_plant(spec, tmp_path / "plant.json")
        back = load_plant(tmp_path / "plant.json")
        assert np.array_equal(back.A, spec.A)
        assert np.array_equal(back.B, spec.B)
        assert back.dropout == spec.dropout
        assert back.input_channels == spec.input_channels

    @pytest.mark.parametrize(
        "edit",
        [lambda d: [d], lambda d: {**d, "A": "x"}, lambda d: {**d, "dropout": [1]}],
        ids=["list_root", "A_not_numeric", "dropout_not_object"],
    )
    def test_malformed_plant_file_is_corrupt(self, tmp_path, edit):
        path = tmp_path / "plant.json"
        save_plant(self._spec(0.25), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(CorruptFile, match="plant.json"):
            load_plant(path)


class TestStability:
    def test_unstable_matrix_rescaled_with_warning(self):
        a = np.array([[1.2, 0.0], [0.0, 0.3]])
        with pytest.warns(StabilityWarning):
            spec = PlantSpec(
                A=a,
                B=np.ones((2, 1)),
                input_channels=generic_channels("u", "input", 1),
                observable_channels=generic_channels("y", "observable", 2),
                noise_sd=np.zeros(2),
            )
        assert spectral_radius(spec.A) == pytest.approx(0.99, rel=1e-9)

    def test_random_plant_radius(self):
        spec = random_stable_plant(4, 2, seed=0, radius=0.7)
        assert spectral_radius(spec.A) == pytest.approx(0.7, rel=1e-9)


class TestPulseTrains:
    def test_lead_and_tail_idle(self):
        ds = pulse_train_inputs(["p", "a"], 1000, 100.0, seed=0, lead_s=1.0, tail_s=1.5)
        assert np.all(ds.data[:100] == 0.0)
        assert np.all(ds.data[-150:] == 0.0)
        assert np.any(ds.data[100:-150, 0] > 0.0)

    def test_pulse_lengths_are_grid_multiples(self):
        ds = pulse_train_inputs(["p"], 4000, 100.0, seed=1, grid_s=0.05)
        from dedsid.spectral import segment_pulses

        counts = np.diff(segment_pulses(ds.column("p")), axis=1).ravel()
        # All but possibly the last truncated pulse sit on the 5-sample grid.
        for count in counts[:-1]:
            assert count % 5 == 0
            assert count // 5 in (1, 2, 3, 4, 6)

    def test_levels_within_range(self):
        ds = pulse_train_inputs(["p"], 3000, 100.0, seed=2, level_range=(0.5, 1.5))
        on = ds.column("p")[ds.column("p") > 0]
        assert on.min() >= 0.5 and on.max() <= 1.5

    def test_aux_blocks_constant(self):
        ds = pulse_train_inputs(["p", "a"], 2000, 100.0, seed=3, aux_grid_s=0.1)
        aux = ds.column("a")[100:-150]
        blocks = aux.reshape(-1, 10)
        assert np.all(blocks == blocks[:, :1])


class TestUnitVariance:
    def test_observables_become_unit_variance(self):
        spec = random_stable_plant(3, 2, seed=10, radius=0.85)
        inputs = pulse_train_inputs(spec.input_names, 3000, 100.0, seed=11)
        scaled = unit_variance_plant(spec, inputs)
        clean = simulate(scaled, inputs).clean_observables
        assert np.allclose(clean.std(axis=0), 1.0, atol=1e-9)

    def test_dynamics_equivalent_up_to_scaling(self):
        spec = random_stable_plant(2, 1, seed=12)
        inputs = pulse_train_inputs(spec.input_names, 1500, 100.0, seed=13)
        original = simulate(spec, inputs).clean_observables
        scaled = simulate(unit_variance_plant(spec, inputs), inputs).clean_observables
        s = original.std(axis=0)
        assert np.allclose(scaled, original / s, atol=1e-9)


class TestDemoCorpus:
    def test_deterministic(self):
        _, a = make_demo_experiments(2, seed=0)
        _, b = make_demo_experiments(2, seed=0)
        for da, db in zip(a, b):
            assert np.array_equal(da.data, db.data)

    def test_channel_layout(self):
        spec, datasets = make_demo_experiments(1, seed=1)
        ds = datasets[0]
        assert ds.channel_names[:3] == ("x_mm", "y_mm", "z_mm")
        assert set(spec.observable_names) <= set(ds.channel_names)
        assert ds.names_of_kind("observable") == spec.observable_names

    def test_flags_are_complements_and_gas_constant(self):
        _, datasets = make_demo_experiments(2, seed=2)
        for ds in datasets:
            infill = ds.column("infill_flag")
            contour = ds.column("contour_flag")
            assert np.array_equal(infill + contour, np.ones(ds.row_count))
            assert np.all(ds.column("shield_gas_lpm") == 12.0)

    def test_dropout_present_when_enabled(self):
        _, datasets = make_demo_experiments(3, seed=3, dropout_probability=0.2)
        total = sum(int(np.sum(ds.column("working_distance_mm") == -1.0)) for ds in datasets)
        assert total > 0

    def test_serpentine_program_parses(self):
        from dedsid.gcode import parse_gcode_subset, program_to_timeseries

        text = serpentine_gcode(
            layers=2,
            lines=3,
            line_length_mm=5.0,
            pitch_mm=1.0,
            feed_mm_min=600.0,
            power_w=300.0,
        )
        ds = program_to_timeseries(parse_gcode_subset(text), 100.0)
        assert ds.row_count > 0
        z = ds.column("z_mm")
        # Two layer plateaus dominate; the brief z hop interpolates between.
        assert z[0] == 0.0 and z[-1] == 0.5
        plateau = np.isin(z, [0.0, 0.5])
        assert np.mean(plateau) > 0.9
        assert np.any(ds.column("power_w") == 300.0)
