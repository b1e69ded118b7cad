import hashlib
import json
import warnings

import numpy as np
import pytest
from helpers import (
    impute_off_state_loop,
    make_dataset,
    mostly,
    standardize,
    standardizer_from_matrix,
    traced_peak,
    unstandardize,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsid.artifacts import to_plain
from dedsid.dataset import (
    ChannelSpec,
    ExperimentManifest,
    IngestReport,
    ManifestEntry,
    ParseCache,
    TimeSeriesDataset,
    decimate,
    impute_off_state,
    ingest_csv,
    load_datasets,
    load_manifest,
    load_schema,
    pool_moments,
    save_manifest,
    save_schema,
    standardizer_from_moments,
    write_csv,
)
from dedsid.config import VifConfig
from dedsid.dmdc import build_snapshots
from dedsid.errors import (
    AllSentinel,
    ConfigError,
    CorruptFile,
    DataError,
    MissingColumn,
    NaNInRetainedColumn,
    NonUniformTimestamps,
    NumericError,
    UnknownChannel,
)
from dedsid.vif import screen_inputs

SCHEMA = (
    ChannelSpec("u", "au", "input"),
    ChannelSpec("y", "au", "observable"),
)

# Small CSV files: lines of fields that are names, numbers, or neither, and
# arbitrary bytes.
CSV_FIELDS = st.sampled_from(
    ["u", "y", " y", "time_s", '"u"', "", "0", "0.01", "-2.5", "1e400", "nan", "inf", "x", "#"]
)
CSV_FILES = st.one_of(
    st.lists(st.lists(CSV_FIELDS, max_size=4).map(",".join), max_size=5).flatmap(
        lambda lines: st.sampled_from(["\n", "\r\n", "\r"]).map(
            lambda end: end.join(lines).encode()
        )
    ),
    st.binary(max_size=40),
)


@pytest.fixture(scope="module")
def csv_root(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_property")


class TestDataset:
    def test_basic_accessors(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], names=["u", "y"], kinds=["input", "observable"])
        assert ds.row_count == 2
        assert ds.channel_names == ("u", "y")
        assert np.array_equal(ds.column("y"), [2.0, 4.0])
        assert np.array_equal(ds.matrix_for(["y", "u"]), [[2.0, 1.0], [4.0, 3.0]])

    @given(
        width=st.integers(1, 6),
        rows=st.integers(0, 4),
        pick=st.sampled_from(["empty", "run", "reversed", "any"]),
        data=st.data(),
    )
    def test_matrix_for_views_exactly_the_ascending_runs(self, width, rows, pick, data):
        # Empty, single, contiguous, reversed, gapped and repeated name lists:
        # values always match the fancy-index oracle; a contiguous ascending
        # run, and only that, is a read-only view of the record.
        if pick == "any":
            idx = data.draw(st.lists(st.integers(0, width - 1), max_size=2 * width))
        elif pick == "empty":
            idx = []
        else:
            start = data.draw(st.integers(0, width - 1))
            idx = list(range(start, data.draw(st.integers(start + 1, width))))
            idx = idx[::-1] if pick == "reversed" else idx
        ds = make_dataset(np.arange(rows * width, dtype=float).reshape(rows, width))
        before = ds.data.copy()
        block = ds.matrix_for([f"c{i}" for i in idx])
        assert block.shape == (rows, len(idx))
        assert np.array_equal(block, ds.data[:, idx])
        run = len(idx) > 0 and all(b - a == 1 for a, b in zip(idx, idx[1:]))
        assert np.shares_memory(block, ds.data) == (run and block.size > 0)
        assert block.flags.writeable != run
        if run:
            with pytest.raises(ValueError):
                block[...] = -1.0
        else:
            block[...] = -1.0
        assert np.array_equal(ds.data, before)
        assert ds.data.flags.writeable

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

    def test_select_channels_keeps_order(self):
        ds = make_dataset(np.arange(6.0).reshape(2, 3), names=["a", "b", "c"])
        out = ds.select_channels(["c", "a"])
        assert out.channel_names == ("c", "a")
        assert np.array_equal(out.data, [[2.0, 0.0], [5.0, 3.0]])

    def test_select_channels_copies_once(self):
        data = np.random.default_rng(5).normal(size=(200_000, 16))
        ds = make_dataset(data, names=[f"c{i}" for i in range(16)])
        idx = [15, *range(1, 15)]
        names = [f"c{i}" for i in idx]
        result_bytes = data[:, idx].nbytes
        assert traced_peak(lambda: ds.select_channels(names)) <= 1.1 * result_bytes
        out = ds.select_channels(names)
        assert out.data.flags.c_contiguous
        assert np.array_equal(out.data, data[:, idx])
        assert not np.shares_memory(out.data, data)


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

    def test_undecodable_header_is_corrupt(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_bytes(b"u,\xff\xfey\n1.0,2.0\n")
        with pytest.raises(CorruptFile, match="codec can't decode"):
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

    @pytest.mark.parametrize("header", ["a,a,u,y", "u,y, u"])
    def test_column_named_twice_is_corrupt(self, tmp_path, header):
        p = self._write(tmp_path / "e.csv", f"{header}\n1,2,3,4\n")
        name = header.split(",")[0].strip()
        with pytest.raises(CorruptFile, match=f"column {name!r} named twice in the header"):
            ingest_csv(p, SCHEMA, 100.0, "e")

    @settings(max_examples=300)
    @given(content=CSV_FILES)
    def test_any_file_ingests_or_raises_a_named_error(self, csv_root, content):
        path = csv_root / "e.csv"
        path.write_bytes(content)
        try:
            ds, report = ingest_csv(path, SCHEMA, 100.0, "e")
        except (ConfigError, DataError, NumericError):
            return
        assert ds.channel_names + report.excluded_all_nan == ("u", "y")

    def test_single_column_file(self, tmp_path):
        p = self._write(tmp_path / "e.csv", "y\n1.0\n2.0\n3.0\n")
        ds, _ = ingest_csv(p, (ChannelSpec("y", "au", "observable"),), 100.0, "e")
        assert np.array_equal(ds.data, [[1.0], [2.0], [3.0]])


def refuse_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt called on a cache hit")


class TestParseCache:
    def _record(self, tmp_path):
        """A CSV of doubles of every size and sign, a time column and a NaN column."""
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-300, 300, (40, 2))
        values[::9] = [-0.0, 5e-324]
        rows = np.column_stack([np.arange(40) / 100.0, values, np.full(40, np.nan)])
        path = tmp_path / "e.csv"
        with open(path, "w") as fh:
            fh.write("time_s,u,y,z\n")
            np.savetxt(fh, rows, delimiter=",", fmt="%.17g")
        return path

    def _ingest(self, path, cache):
        schema = (*SCHEMA, ChannelSpec("z", "au", "observable"))
        return ingest_csv(path, schema, 100.0, "e", cache)

    def test_hit_is_bit_identical_to_a_fresh_parse(self, tmp_path, monkeypatch):
        path = self._record(tmp_path)
        fresh, report = self._ingest(path, None)
        first = ParseCache(tmp_path / "cache")
        assert first.digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        self._ingest(path, first)
        first.save(keep=[first.digest(path)])
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"{first.digest(path)}.npy"]
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        hit, hit_report = self._ingest(path, ParseCache(tmp_path / "cache"))
        assert hit.data.tobytes() == fresh.data.tobytes()
        assert hit.channels == fresh.channels
        assert hit_report == report == IngestReport("e", ("u", "y"), ("z",))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry: entry.write_bytes(entry.read_bytes()[:-12]),
            lambda entry: np.save(entry, np.zeros((40, 3))),
            lambda entry: np.save(entry, np.zeros((40, 4), dtype=np.float32)),
            lambda entry: entry.write_bytes(b"not an array"),
        ],
        ids=["truncated", "narrow", "float32", "garbage"],
    )
    def test_damaged_entry_is_parsed_again_and_replaced(self, tmp_path, damage):
        path = self._record(tmp_path)
        cache = ParseCache(tmp_path / "cache")
        fresh, _ = self._ingest(path, cache)
        cache.save(keep=[cache.digest(path)])
        entry = tmp_path / "cache" / f"{cache.digest(path)}.npy"
        good = entry.read_bytes()
        damage(entry)
        again = ParseCache(tmp_path / "cache")
        ds, _ = self._ingest(path, again)
        assert ds.data.tobytes() == fresh.data.tobytes()
        again.save(keep=[again.digest(path)])
        assert entry.read_bytes() == good
        assert sorted(p.name for p in entry.parent.iterdir()) == [entry.name]

    def test_save_removes_entries_not_kept(self, tmp_path):
        # An entry of content no longer read (an edited file's old bytes)
        # goes; a kept one stays even when this save wrote nothing.
        path = self._record(tmp_path)
        cache = ParseCache(tmp_path / "cache")
        self._ingest(path, cache)
        stray = tmp_path / "cache" / f"{'0' * 64}.npy"
        stray.parent.mkdir()
        np.save(stray, np.zeros((1, 4)))
        cache.save(keep=[cache.digest(path), stray.stem])
        assert stray.exists()
        cache.save(keep=[cache.digest(path)])
        assert [p.name for p in stray.parent.iterdir()] == [f"{cache.digest(path)}.npy"]

    def test_failed_parse_holds_no_entry(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("u,y\n1.0,2.0\nabc,3.0\n")
        cache = ParseCache(tmp_path / "cache")
        with pytest.raises(CorruptFile, match="'abc'"):
            ingest_csv(path, SCHEMA, 100.0, "e", cache)
        cache.save(keep=[cache.digest(path)])
        assert not (tmp_path / "cache").exists()

    def test_file_changed_between_reads_is_corrupt(self, tmp_path):
        # A path parsed twice is read twice; the second read must give the
        # bytes whose digest the run recorded.
        path = tmp_path / "e.csv"
        path.write_text("u,y\n1.0,2.0\n")
        cache = ParseCache()
        ingest_csv(path, SCHEMA, 100.0, "e", cache)
        assert ingest_csv(path, SCHEMA, 100.0, "e", cache)[0].row_count == 1
        path.write_text("u,y\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(CorruptFile, match="changed while the run read it"):
            ingest_csv(path, SCHEMA, 100.0, "e", cache)


class TestStandardizer:
    def test_transform_centers_and_scales(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.5, size=(400, 2))
        out = standardize(standardizer_from_matrix(values, ["a", "b"]), values)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(50, 3))
        params = standardizer_from_matrix(values, ["a", "b", "c"])
        back = unstandardize(params, standardize(params, values))
        assert np.allclose(back, values, atol=1e-12)

    def test_constant_channel_scale_one(self):
        params = standardizer_from_matrix(np.full((10, 1), 7.0), ["c"])
        assert params.scale[0] == 1.0
        assert params.mean[0] == 7.0

    def test_pooled_matches_concatenation(self):
        rng = np.random.default_rng(2)
        groups = [rng.normal(size=(30, 2)), rng.normal(2.0, 3.0, size=(70, 2)), np.ones((1, 2))]
        count, mean, m2 = pool_moments(
            [len(g) for g in groups],
            np.array([g.mean(axis=0) for g in groups]),
            np.array([((g - g.mean(axis=0)) ** 2).sum(axis=0) for g in groups]),
        )
        pooled = standardizer_from_moments(["a", "b"], count, mean, m2)
        direct = standardizer_from_matrix(np.vstack(groups), ["a", "b"])
        assert count == 101
        assert np.allclose(pooled.mean, direct.mean, rtol=1e-14, atol=0)
        assert np.allclose(pooled.scale, direct.scale, rtol=1e-14, atol=0)

    def test_pooled_constant_is_exact(self):
        # np.mean of 0.1 over 2,000 rows misses 0.1; merged groups do not.
        groups = [np.full((n, 1), 0.1) for n in (700, 1300)]
        _, mean, m2 = pool_moments(
            [700, 1300], np.full((2, 1), 0.1), np.zeros((2, 1))
        )
        assert mean[0] == 0.1 and m2[0] == 0.0
        assert np.vstack(groups).std() > 0.0
        params = standardizer_from_moments(["c"], 2000, mean, m2)
        assert params.scale[0] == 1.0

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

    @pytest.mark.parametrize(
        "wd, power",
        [([5.0, 6.0, 7.0], [1.0, 1.0, 1.0]), ([5.0, -1.0, -1.0, 9.0], [1.0, 0.0, 0.0, 1.0])],
    )
    def test_nothing_live_returns_the_dataset(self, wd, power):
        # No sentinel, or none with the gate live: no row to rewrite, no copy.
        ds = self._ds(wd, power)
        assert impute_off_state(ds, "wd", -1.0, "power") is ds

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

    @given(
        pattern=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_loop_oracle(self, pattern, seed):
        # Random sentinel and gate patterns: runs at either end, gate-off runs,
        # and series with no valid sample at all.
        sentinel, gate = (np.array(column) for column in zip(*pattern))
        wd = np.random.default_rng(seed).uniform(1.0, 2.0, size=len(pattern))
        wd[sentinel] = -1.0
        ds = self._ds(wd, gate.astype(float))
        try:
            expected = impute_off_state_loop(ds, "wd", -1.0, "power").column("wd")
        except AllSentinel:
            with pytest.raises(AllSentinel):
                impute_off_state(ds, "wd", -1.0, "power")
            return
        out = impute_off_state(ds, "wd", -1.0, "power").column("wd")
        assert np.array_equal(out, expected)
        assert np.array_equal(out[sentinel & ~gate], wd[sentinel & ~gate])


class TestDecimate:
    def test_stride_and_rate(self):
        ds = make_dataset(np.arange(10.0), rate=100.0)
        out = decimate(ds, 5)
        assert out.sample_rate_hz == 20.0
        assert np.array_equal(out.data.ravel(), [0.0, 5.0])

    def test_shares_memory_with_its_source(self):
        ds = make_dataset(np.arange(20.0).reshape(10, 2), rate=100.0, names=["a", "b"])
        out = decimate(ds, 3)
        assert np.shares_memory(out.data, ds.data)
        assert np.array_equal(out.data, ds.data[::3])

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
    """Constant inputs as the VIF screen finds them: pooled M2 exactly 0."""

    @staticmethod
    def constant_inputs(*columns):
        datasets = [
            make_dataset(
                np.column_stack([c, np.arange(len(c)), np.sin(np.arange(len(c)))]),
                names=["c", "v", "y"],
                kinds=["input", "input", "observable"],
                experiment_id=f"e{i}",
            )
            for i, c in enumerate(columns)
        ]
        return screen_inputs(build_snapshots(datasets, ["c", "v"], ["y"]), VifConfig())[0]

    def test_detects_globally_constant_channel(self):
        assert self.constant_inputs(np.full(5, 2.0), np.full(7, 2.0)) == ["c"]

    def test_per_experiment_constant_but_varying_across_is_kept(self):
        assert self.constant_inputs(np.full(5, 1.0), np.full(5, 2.0)) == []

    def test_any_variation_is_kept(self):
        # Exact, as equality over the rows would be: no tolerance on M2.
        assert self.constant_inputs(np.full(5, 2.0), np.r_[np.full(6, 2.0), 2.0 + 2.0**-40]) == []


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
