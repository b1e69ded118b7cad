import json
import warnings

import numpy as np
import pytest
from helpers import make_dataset, mostly
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsid.artifacts import to_plain
from dedsid.dataset import (
    ChannelSpec,
    ExperimentManifest,
    ManifestEntry,
    TimeSeriesDataset,
    decimate,
    fit_standardizer_pooled,
    impute_off_state,
    ingest_csv,
    load_datasets,
    load_manifest,
    load_schema,
    save_manifest,
    save_schema,
    standardizer_from_matrix,
    write_csv,
    zero_variance_channels,
)
from dedsid.errors import (
    AllSentinel,
    CorruptFile,
    DataError,
    DegenerateChannelWarning,
    MissingColumn,
    NaNInRetainedColumn,
    NonUniformTimestamps,
    UnknownChannel,
)

SCHEMA = (
    ChannelSpec("u", "au", "input"),
    ChannelSpec("y", "au", "observable"),
)


class TestDataset:
    def test_basic_accessors(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], names=["u", "y"], kinds=["input", "observable"])
        assert ds.row_count == 2
        assert ds.channel_names == ("u", "y")
        assert ds.input_names == ("u",)
        assert ds.observable_names == ("y",)
        assert np.array_equal(ds.column("y"), [2.0, 4.0])
        assert np.array_equal(ds.matrix_for(["y", "u"]), [[2.0, 1.0], [4.0, 3.0]])

    def test_unknown_channel(self):
        ds = make_dataset([[1.0]], names=["a"])
        with pytest.raises(UnknownChannel):
            ds.column("nope")

    def test_index_of_follows_the_channel_tuple(self):
        ds = make_dataset(np.zeros((2, 4)), names=["a", "b", "a", "c"])
        assert [ds.index_of(n) for n in ("a", "b", "c")] == [0, 1, 3]  # first "a" wins
        assert ds.select_channels(["c", "b"]).index_of("b") == 1
        with pytest.raises(UnknownChannel):
            ds.index_of("d")

    def test_with_column_replaces_values(self):
        ds = make_dataset([[1.0], [2.0]], names=["a"])
        out = ds.with_column("a", np.array([5.0, 6.0]))
        assert np.array_equal(out.column("a"), [5.0, 6.0])
        assert np.array_equal(ds.column("a"), [1.0, 2.0])

    def test_select_channels_keeps_order(self):
        ds = make_dataset(np.arange(6.0).reshape(2, 3), names=["a", "b", "c"])
        out = ds.select_channels(["c", "a"])
        assert out.channel_names == ("c", "a")
        assert np.array_equal(out.data, [[2.0, 0.0], [5.0, 3.0]])


class TestIngest:
    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.normal(size=(17, 2)), names=["u", "y"], kinds=["input", "observable"])
        write_csv(ds, tmp_path / "e.csv")
        back, report = ingest_csv(tmp_path / "e.csv", SCHEMA, 100.0, "e")
        # %.17g prints doubles losslessly, so the round trip is bitwise.
        assert np.array_equal(back.data, ds.data)
        assert report.retained == ("u", "y")
        assert report.excluded_all_nan == ()

    def test_all_nan_column_excluded_and_reported(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "u,y\nnan,1.0\nnan,2.0\n")
        ds, report = ingest_csv(p, SCHEMA, 100.0, "e")
        assert ds.channel_names == ("y",)
        assert report.excluded_all_nan == ("u",)

    def test_isolated_nan_is_an_error(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "u,y\n1.0,1.0\nnan,2.0\n")
        with pytest.raises(NaNInRetainedColumn):
            ingest_csv(p, SCHEMA, 100.0, "e")

    def test_missing_column_is_an_error(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "u\n1.0\n")
        with pytest.raises(MissingColumn):
            ingest_csv(p, SCHEMA, 100.0, "e")

    def test_time_column_checked_then_dropped(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "time_s,u,y\n0.0,1,2\n0.01,3,4\n0.02,5,6\n")
        ds, _ = ingest_csv(p, SCHEMA, 100.0, "e")
        assert ds.channel_names == ("u", "y")
        assert ds.row_count == 3

    def test_irregular_time_column_rejected(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "time_s,u,y\n0.0,1,2\n0.5,3,4\n0.52,5,6\n")
        with pytest.raises(NonUniformTimestamps):
            ingest_csv(p, SCHEMA, 100.0, "e")

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("u,y\n1.0,2.0\n3.0\n", "number of columns changed"),
            ("u,y\n1.0,2.0\nabc,3.0\n", "'abc'"),
            ("u,y\nabc,1.0\ndef,2.0\n", "'abc'"),
            ("u,y\n1.0,2.0\n,3.0\n", "''"),
        ],
        ids=["short_row", "word_in_field", "text_column", "empty_field"],
    )
    def test_malformed_rows_are_corrupt(self, tmp_path, text, detail):
        p = self._write(tmp_path / "e.csv", text)
        with pytest.raises(CorruptFile, match=detail):
            ingest_csv(p, SCHEMA, 100.0, "e")

    def test_nan_and_inf_literals_accepted(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "u,y\nnan,inf\nNaN,-inf\n")
        ds, report = ingest_csv(p, SCHEMA, 100.0, "e")
        assert report.excluded_all_nan == ("u",)
        assert np.array_equal(ds.column("y"), [np.inf, -np.inf])

    def test_header_only_is_zero_rows_without_warning(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "u,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds, report = ingest_csv(p, SCHEMA, 100.0, "e")
        assert ds.row_count == 0
        assert report.retained == ("u", "y")

    def test_single_column_file(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "y\n1.0\n2.0\n3.0\n")
        ds, _ = ingest_csv(p, (ChannelSpec("y", "au", "observable"),), 100.0, "e")
        assert np.array_equal(ds.data, [[1.0], [2.0], [3.0]])


class TestStandardizer:
    def test_transform_centers_and_scales(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.5, size=(400, 2))
        out = standardizer_from_matrix(values, ["a", "b"]).transform_matrix(values)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(50, 3))
        params = standardizer_from_matrix(values, ["a", "b", "c"])
        back = params.invert_matrix(params.transform_matrix(values))
        assert np.allclose(back, values, atol=1e-12)

    def test_constant_channel_scale_one_with_warning(self):
        with pytest.warns(DegenerateChannelWarning):
            params = standardizer_from_matrix(np.full((10, 1), 7.0), ["c"])
        assert params.scale[0] == 1.0
        assert params.mean[0] == 7.0

    def test_pooled_matches_concatenation(self):
        rng = np.random.default_rng(2)
        a = make_dataset(rng.normal(size=(30, 2)), names=["a", "b"])
        b = make_dataset(rng.normal(2.0, 3.0, size=(70, 2)), names=["a", "b"])
        pooled = fit_standardizer_pooled([a, b], ["a", "b"])
        direct = standardizer_from_matrix(np.vstack([a.data, b.data]), ["a", "b"])
        assert np.allclose(pooled.mean, direct.mean)
        assert np.allclose(pooled.scale, direct.scale)

    def test_params_dict_round_trip(self):
        from dedsid.dataset import StandardizationParams

        params = standardizer_from_matrix(np.random.default_rng(4).normal(size=(20, 2)), ["a", "b"])
        back = StandardizationParams(**to_plain(params))
        assert back.channels == params.channels
        assert np.array_equal(back.mean, params.mean)
        assert np.array_equal(back.scale, params.scale)


class TestImpute:
    def _ds(self, wd, power):
        return make_dataset(
            np.column_stack([power, wd]),
            names=["power", "wd"],
            kinds=["input", "observable"],
        )

    def test_gated_run_linearly_bridged(self):
        # Sentinels at rows 2..3 with the gate live; anchors are rows 1 and 4.
        wd = [5.0, 6.0, -1.0, -1.0, 9.0, 9.5]
        power = [1.0] * 6
        out = impute_off_state(self._ds(wd, power), "wd", -1.0, "power")
        assert np.allclose(out.column("wd"), [5.0, 6.0, 7.0, 8.0, 9.0, 9.5])

    def test_ungated_sentinels_untouched(self):
        wd = [5.0, -1.0, -1.0, 9.0]
        power = [1.0, 0.0, 0.0, 1.0]
        out = impute_off_state(self._ds(wd, power), "wd", -1.0, "power")
        assert np.array_equal(out.column("wd"), wd)

    def test_boundary_run_held_constant(self):
        wd = [-1.0, -1.0, 4.0, -1.0]
        power = [1.0, 1.0, 1.0, 1.0]
        out = impute_off_state(self._ds(wd, power), "wd", -1.0, "power")
        assert np.allclose(out.column("wd"), [4.0, 4.0, 4.0, 4.0])

    def test_all_sentinel_raises(self):
        wd = [-1.0, -1.0]
        power = [1.0, 0.0]
        with pytest.raises(AllSentinel):
            impute_off_state(self._ds(wd, power), "wd", -1.0, "power")

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        wd = rng.uniform(1.0, 2.0, size=200)
        power = (rng.random(200) > 0.3).astype(float)
        hit = (rng.random(200) < 0.15) & (power > 0)
        wd[hit] = -1.0
        ds = self._ds(wd, power)
        once = impute_off_state(ds, "wd", -1.0, "power")
        twice = impute_off_state(once, "wd", -1.0, "power")
        assert np.array_equal(once.column("wd"), twice.column("wd"))


class TestDecimate:
    def test_stride_and_rate(self):
        ds = make_dataset(np.arange(10.0), rate=100.0)
        out = decimate(ds, 5)
        assert out.sample_rate_hz == 20.0
        assert np.array_equal(out.data.ravel(), [0.0, 5.0])

    def test_composition(self):
        ds = make_dataset(np.arange(60.0), rate=60.0)
        a = decimate(decimate(ds, 2), 3)
        b = decimate(ds, 6)
        assert a.sample_rate_hz == b.sample_rate_hz
        assert np.array_equal(a.data, b.data)

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=40))
    def test_row_count_property(self, factor, rows):
        ds = make_dataset(np.arange(float(rows)), rate=100.0)
        out = decimate(ds, factor)
        assert out.row_count == (rows + factor - 1) // factor

    def test_rejects_bad_factor(self):
        ds = make_dataset(np.arange(4.0))
        with pytest.raises(ValueError):
            decimate(ds, 0)


class TestZeroVariance:
    def test_detects_globally_constant_channel(self):
        a = make_dataset(np.column_stack([np.full(5, 2.0), np.arange(5.0)]), names=["c", "v"])
        b = make_dataset(np.column_stack([np.full(7, 2.0), np.arange(7.0)]), names=["c", "v"])
        assert zero_variance_channels(np.concatenate([a.data, b.data]), ["c", "v"]) == ["c"]

    def test_per_experiment_constant_but_varying_across_is_kept(self):
        a = make_dataset(np.full((5, 1), 1.0), names=["c"])
        b = make_dataset(np.full((5, 1), 2.0), names=["c"])
        assert zero_variance_channels(np.concatenate([a.data, b.data]), ["c"]) == []


MANIFEST_ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "experiment_id": mostly(st.text(max_size=6)),
        "path": mostly(st.sampled_from(["e0.csv", "ghost.csv", ""]) | st.text(max_size=6)),
        "sample_rate_hz": mostly(st.floats() | st.integers()),
    },
)
MANIFESTS = mostly(
    st.fixed_dictionaries({"experiments": mostly(st.lists(mostly(MANIFEST_ENTRIES), max_size=3))})
)


@pytest.fixture(scope="module")
def manifest_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest_property")
    (root / "e0.csv").write_text("u,y\n0,0\n")
    return root


class TestManifestSchema:
    def test_schema_round_trip(self, tmp_path):
        save_schema(SCHEMA, tmp_path / "schema.json")
        assert load_schema(tmp_path / "schema.json") == SCHEMA

    def test_manifest_round_trip_and_load(self, tmp_path):
        rng = np.random.default_rng(6)
        for i in range(2):
            ds = make_dataset(
                rng.normal(size=(8, 2)),
                names=["u", "y"],
                kinds=["input", "observable"],
                experiment_id=f"e{i}",
            )
            write_csv(ds, tmp_path / f"e{i}.csv")
        manifest = ExperimentManifest(
            entries=tuple(
                ManifestEntry(experiment_id=f"e{i}", path=f"e{i}.csv", sample_rate_hz=100.0)
                for i in range(2)
            ),
            root=tmp_path,
        )
        save_manifest(manifest, tmp_path / "manifest.json")
        back = load_manifest(tmp_path / "manifest.json")
        datasets, reports = load_datasets(back, SCHEMA)
        assert [d.experiment_id for d in datasets] == ["e0", "e1"]
        assert all(r.retained == ("u", "y") for r in reports)

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(DataError):
            ExperimentManifest(
                entries=(
                    ManifestEntry("e", "a.csv", 100.0),
                    ManifestEntry("e", "b.csv", 100.0),
                ),
                root=tmp_path,
            )

    @settings(max_examples=300)
    @given(payload=MANIFESTS)
    def test_any_entry_loads_or_raises_a_named_error(self, manifest_root, payload):
        path = manifest_root / "manifest.json"
        path.write_text(json.dumps(payload))
        try:
            manifest = load_manifest(path)
        except DataError:  # CorruptFile included
            return
        assert all(isinstance(e.path, str) for e in manifest.entries)

    def test_missing_file_rejected_at_load(self, tmp_path):
        manifest = ExperimentManifest(
            entries=(ManifestEntry("e", "ghost.csv", 100.0),), root=tmp_path
        )
        save_manifest(manifest, tmp_path / "manifest.json")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "manifest.json")
