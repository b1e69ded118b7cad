import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsid.cli import main
from dedsid.config import RunConfig, load_run_config
from dedsid.dataset import load_datasets, load_manifest, load_schema
from dedsid.dmdc import load_model
from dedsid.errors import ConfigError, DataError


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(root), "--experiments", "6", "--seed", "0"]) == 0
    return root


def derived_config(corpus, out_name, **overrides):
    payload = json.loads((corpus / "config.json").read_text())
    payload["output_dir"] = out_name
    payload.update(overrides)
    path = corpus / f"config_{out_name}.json"
    path.write_text(json.dumps(payload))
    return path


def one_experiment_config(corpus, root: Path, csv_name: str) -> Path:
    """Config in ``root`` over the corpus schema and one experiment file."""
    entry = {"experiment_id": Path(csv_name).stem, "path": csv_name, "sample_rate_hz": 100.0}
    (root / "manifest.json").write_text(json.dumps({"experiments": [entry]}))
    (root / "schema.json").write_text((corpus / "schema.json").read_text())
    payload = json.loads((corpus / "config.json").read_text())
    payload["manifest"] = "manifest.json"
    payload["schema"] = "schema.json"
    path = root / "config.json"
    path.write_text(json.dumps(payload))
    return path


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestSynth:
    def test_artifacts_exist_and_load(self, corpus):
        schema = load_schema(corpus / "schema.json")
        manifest = load_manifest(corpus / "manifest.json")
        datasets, _ = load_datasets(manifest, schema)
        assert len(datasets) == 6
        assert (corpus / "plant.json").exists()
        cfg = load_run_config(corpus / "config.json")
        assert cfg.seed == 0
        assert cfg.lpocv.p == 3

    def test_deterministic(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--experiments", "6", "--seed", "0"]) == 0
        for name in ["exp01.csv", "exp06.csv", "plant.json", "schema.json"]:
            assert (again / name).read_bytes() == (corpus / name).read_bytes()


class TestStages:
    def test_ingest_report(self, corpus):
        cfg_path = derived_config(corpus, "out_ingest")
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        payload = json.loads((corpus / "out_ingest" / "ingest_report.json").read_text())
        assert len(payload["experiments"]) == 6
        assert payload["dropped_channels"] == []
        assert "config_sha256" in payload["provenance"]

    def test_select_features_reduced_corpus_round_trips(self, corpus):
        cfg_path = derived_config(corpus, "out_vif")
        assert main(["select-features", "--config", str(cfg_path)]) == 0
        out = corpus / "out_vif"
        payload = json.loads((out / "vif_report.json").read_text())
        assert payload["constant_channels_excluded"] == ["shield_gas_lpm"]
        survivors = payload["surviving_features"]
        assert len(survivors) == 7
        assert all(v != "inf" and v < 5 for v in payload["final_vif"].values())
        # A complement flag pair is planted; one of the two must fall first.
        first_out = payload["iterations"][0]["excluded_feature"]
        assert first_out in ("infill_flag", "contour_flag")

        reduced = out / "reduced"
        schema = load_schema(reduced / "schema.json")
        datasets, _ = load_datasets(load_manifest(reduced / "manifest.json"), schema)
        assert len(datasets) == 6
        names = set(datasets[0].channel_names)
        assert set(survivors) <= names
        assert "infill_flag" not in names

    def test_dist_report(self, corpus):
        cfg_path = derived_config(corpus, "out_dist")
        assert main(["dist-report", "--config", str(cfg_path)]) == 0
        out = corpus / "out_dist"
        payload = json.loads((out / "dist_report.json").read_text())
        assert len(payload["results"]) == 9  # 3 pairs x 3 observables
        lines = (out / "dist_report.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "channel,pair,mean_distance,ci95_halfwidth,repeats"
        assert len(lines) == 11

    def test_fit_cv_predict_chain(self, corpus):
        cfg_path = derived_config(corpus, "out_chain")
        out = corpus / "out_chain"
        assert main(["fit", "--config", str(cfg_path)]) == 0
        model = load_model(out / "model.json")
        assert model.state_dim == 3
        assert model.input_dim == 7

        assert main(["cv", "--config", str(cfg_path)]) == 0
        payload = json.loads((out / "cv_report.json").read_text())
        assert payload["cv"]["p"] == 3 and payload["cv"]["repeats"] == 10
        assert set(payload["envelope"]["rmse"]) == {
            "melt_pool_size_mm",
            "melt_pool_temp_c",
            "working_distance_mm",
        }

        assert main(["predict", "--config", str(cfg_path), "--experiment", "exp02"]) == 0
        report = json.loads((out / "predict_report.json").read_text())
        assert report["experiment_id"] == "exp02"
        assert 0.0 <= report["within_bounds_fraction"] <= 1.0
        header = (out / "bounded_predictions.csv").read_text().splitlines()[1].split(",")
        assert header[0] == "t"
        assert "melt_pool_size_mm_pred" in header
        assert "melt_pool_size_mm_lower" in header
        geo_header = (out / "geometry.csv").read_text().splitlines()[1].split(",")
        assert geo_header[:4] == ["t", "x_mm", "y_mm", "z_mm"]

    def test_spectrogram_with_and_without_model(self, corpus):
        bare = derived_config(corpus, "out_sg_bare")
        assert main(["spectrogram", "--config", str(bare)]) == 0
        bare_payload = json.loads((corpus / "out_sg_bare" / "spectrogram.json").read_text())
        assert "model_similarity" not in bare_payload
        assert (corpus / "out_sg_bare" / "spectrogram.csv").exists()
        assert not (corpus / "out_sg_bare" / "spectrogram_model.csv").exists()

        chained = derived_config(corpus, "out_sg_model")
        assert main(["fit", "--config", str(chained)]) == 0
        assert main(["spectrogram", "--config", str(chained)]) == 0
        payload = json.loads((corpus / "out_sg_model" / "spectrogram.json").read_text())
        assert payload["model_similarity"] > 0.9
        assert (corpus / "out_sg_model" / "spectrogram_model.csv").exists()

    def test_freq_study(self, corpus):
        cfg_path = derived_config(
            corpus, "out_freq", decimation_factors=[1, 2], lpocv={"p": 2, "repeats": 2}
        )
        assert main(["freq-study", "--config", str(cfg_path)]) == 0
        lines = (corpus / "out_freq" / "freq_study.csv").read_text().splitlines()
        assert len(lines) == 2 + 2 * 3
        payload = json.loads((corpus / "out_freq" / "freq_study.json").read_text())
        assert [row["factor"] for row in payload["rows"]] == [1, 2]
        assert payload["rows"][1]["sample_rate_hz"] == 50.0

    def test_bench_writes_report(self, corpus, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--points", "5000"]) == 0
        payload = json.loads((tmp_path / "bench_report.json").read_text())
        assert payload["points"] == 5000
        assert payload["fit_us_per_point"] > 0


class TestPipeline:
    def test_all_artifacts_and_determinism(self, corpus):
        cfg_path = derived_config(corpus, "out_pipe")
        out = corpus / "out_pipe"
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        expected = {
            "ingest_report.json",
            "impute_report.json",
            "vif_report.json",
            "dist_report.json",
            "dist_report.csv",
            "cv_report.json",
            "model.json",
            "predict_report.json",
            "bounded_predictions.csv",
            "geometry.csv",
            "spectrogram.csv",
            "spectrogram_model.csv",
            "spectrogram.json",
            "pipeline_report.json",
        }
        assert expected <= set(read_tree(out))
        first = read_tree(out)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert read_tree(out) == first

    def test_dist_report_matches_standalone_stage(self, corpus):
        cfg_path = derived_config(corpus, "out_dist_pipe")
        out = corpus / "out_dist_pipe"
        names = ["dist_report.json", "dist_report.csv"]
        assert main(["dist-report", "--config", str(cfg_path)]) == 0
        standalone = {n: (out / n).read_bytes() for n in names}
        for n in names:
            (out / n).unlink()
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert {n: (out / n).read_bytes() for n in names} == standalone

    def test_seed_override_changes_provenance(self, corpus):
        cfg_path = derived_config(corpus, "out_seed")
        assert main(["cv", "--config", str(cfg_path)]) == 0
        base = json.loads((corpus / "out_seed" / "cv_report.json").read_text())
        assert main(["cv", "--config", str(cfg_path), "--seed", "5"]) == 0
        other = json.loads((corpus / "out_seed" / "cv_report.json").read_text())
        assert base["provenance"]["seed"] == 0
        assert other["provenance"]["seed"] == 5
        assert base["provenance"]["config_sha256"] != other["provenance"]["config_sha256"]
        assert base["cv"]["folds"] != other["cv"]["folds"]

    def test_provenance_consistent_across_artifacts(self, corpus):
        out = corpus / "out_pipe"
        hashes = set()
        for name in ["ingest_report.json", "cv_report.json", "pipeline_report.json"]:
            payload = json.loads((out / name).read_text())
            hashes.add(payload["provenance"]["config_sha256"])
        first_line = (out / "bounded_predictions.csv").read_text().splitlines()[0]
        hashes.add(first_line.split("config_sha256=")[1].split()[0])
        assert len(hashes) == 1


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        assert main(["cv", "--config", str(tmp_path / "nope.json")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_eval_mode_is_2(self, corpus):
        cfg_path = derived_config(corpus, "out_bad", eval_mode="sideways")
        assert main(["cv", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("rank", [0, -2])
    def test_svd_rank_below_one_is_2(self, corpus, rank, capsys):
        cfg_path = derived_config(corpus, f"out_rank{rank}", svd_rank=rank)
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert f"svd_rank must be at least 1, got {rank}" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["lpocv", "vif", "spectrogram", "bench"])
    @pytest.mark.parametrize("value", [None, [], 3])
    def test_non_object_section_is_2(self, corpus, section, value, capsys):
        cfg_path = derived_config(corpus, f"out_{section}_{value}", **{section: value})
        assert main(["cv", "--config", str(cfg_path)]) == 2
        assert f"config section {section!r} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"seed": "abc"}, "seed"),
            ({"seed": None}, "seed"),
            ({"seed": [1]}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"standardize_inputs": "false"}, "standardize_inputs"),
            ({"lpocv": {"p": 2.9}}, "lpocv.p"),
            ({"position_channels": "xyz"}, "position_channels"),
            ({"svd_rank": True}, "svd_rank"),
            ({"spectrogram": {"observable": 5}}, "spectrogram.observable"),
            ({"spectrogram": {"cap_hz": "2"}}, "spectrogram.cap_hz"),
            ({"predict_experiment": 7}, "predict_experiment"),
            (
                {"imputation": [{"channel": "c", "sentinel": "nan", "gate_channel": "g"}]},
                "imputation[0].sentinel",
            ),
            ({"lpocvv": {"p": 2}}, "lpocvv"),
            ({"vif": {"remove_abov": 9.0}}, "vif.remove_abov"),
            ({"config_sha256": "0" * 64}, "config_sha256"),
            ({"vif": {"remove_above": 10**400}}, "vif.remove_above"),
            ({"manifest": "manifest\x00.json"}, "manifest"),
        ],
        ids=[
            "seed_word",
            "seed_null",
            "seed_list",
            "seed_string",
            "standardize_string",
            "p_fraction",
            "positions_string",
            "svd_rank_bool",
            "observable_number",
            "cap_string",
            "predict_number",
            "sentinel_string",
            "unknown_section",
            "unknown_key",
            "hash_key",
            "float_overflow",
            "nul_in_path",
        ],
    )
    def test_mistyped_or_unknown_config_key_is_2(self, corpus, overrides, key, capsys):
        cfg_path = derived_config(corpus, "out_typed", **overrides)
        assert main(["ingest", "--config", str(cfg_path)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    def test_overflowing_seed_literal_is_2(self, corpus, capsys):
        cfg_path = derived_config(corpus, "out_seed_1e400")
        text = cfg_path.read_text()
        cfg_path.write_text(text.replace('"seed": 0', '"seed": 1e400'))
        assert main(["ingest", "--config", str(cfg_path)]) == 2
        assert "config key 'seed' must be an integer, got inf" in capsys.readouterr().err

    def test_too_few_experiments_is_2(self, corpus):
        cfg_path = derived_config(corpus, "out_toofew", lpocv={"p": 6, "repeats": 2})
        assert main(["cv", "--config", str(cfg_path)]) == 2

    def test_missing_experiment_file_is_3(self, corpus, tmp_path, capsys):
        cfg = one_experiment_config(corpus, tmp_path, "ghost.csv")
        assert main(["ingest", "--config", str(cfg)]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda row: row.rsplit(",", 1)[0], "number of columns changed"),
            (lambda row: "abc" + row[row.index(","):], "could not convert string 'abc'"),
        ],
        ids=["short_row", "word_in_field"],
    )
    def test_malformed_csv_is_3(self, corpus, tmp_path, edit, detail, capsys):
        lines = (corpus / "exp01.csv").read_text().splitlines()
        lines[5] = edit(lines[5])
        (tmp_path / "exp01.csv").write_text("\n".join(lines) + "\n")
        cfg = one_experiment_config(corpus, tmp_path, "exp01.csv")
        assert main(["ingest", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "data error: cannot read" in err and detail in err

    @pytest.mark.parametrize(
        "key, value, detail",
        [
            ("rows", 0, "rows and cols must be at least 1, got 0x100"),
            ("cols", -3, "rows and cols must be at least 1, got 100x-3"),
            ("cap_hz", float("nan"), "cap_hz must be finite and positive, got nan"),
            ("cap_hz", float("inf"), "cap_hz must be finite and positive, got inf"),
            ("cap_hz", 0.0, "cap_hz must be finite and positive, got 0.0"),
            ("cap_hz", -1.0, "cap_hz must be finite and positive, got -1.0"),
        ],
        ids=["rows_0", "cols_negative", "cap_nan", "cap_inf", "cap_0", "cap_negative"],
    )
    def test_bad_spectrogram_grid_or_cap_is_2(self, corpus, key, value, detail, capsys):
        cfg_path = derived_config(corpus, f"out_sg_{key}_{value}", spectrogram={key: value})
        assert main(["spectrogram", "--config", str(cfg_path)]) == 2
        assert f"spectrogram {detail}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("schema.json", {"fields": []}),
            ("schema.json", {"channels": [{"name": "u1", "unit": "au", "kind": "sensor"}]}),
            ("schema.json", [{"name": "u1", "unit": "au", "kind": "input"}]),
            ("manifest.json", {"experiments": [{"path": "exp01.csv", "sample_rate_hz": 100.0}]}),
            ("manifest.json", ["exp01.csv"]),
        ],
        ids=["no_channels", "bad_kind", "schema_list", "no_experiment_id", "manifest_list"],
    )
    def test_malformed_schema_or_manifest_is_3(self, corpus, tmp_path, name, payload, capsys):
        (tmp_path / "exp01.csv").write_text((corpus / "exp01.csv").read_text())
        cfg = one_experiment_config(corpus, tmp_path, "exp01.csv")
        (tmp_path / name).write_text(json.dumps(payload))
        assert main(["ingest", "--config", str(cfg)]) == 3
        assert f"data error: cannot read {tmp_path / name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"envelope": 3}',
            "{not json",
            "[]",
            '{"cv": {}}',
            '{"envelope": {"rmse": {}, "ci95": {}}}',
            '{"envelope": {"rmse": 3, "ci95": 4}}',
        ],
    )
    def test_malformed_cv_report_is_3(self, corpus, text, capsys):
        cfg_path = derived_config(corpus, "out_bad_envelope")
        assert main(["fit", "--config", str(cfg_path)]) == 0
        (corpus / "out_bad_envelope" / "cv_report.json").write_text(text)
        assert main(["predict", "--config", str(cfg_path)]) == 3
        assert "cv_report.json" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_bench_points_below_one_is_2(self, tmp_path, monkeypatch, points, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--points", points]) == 2
        assert f"--points must be at least 1, got {points}" in capsys.readouterr().err
        assert not (tmp_path / "bench_report.json").exists()

    @pytest.mark.parametrize("key", ["points", "q", "p"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_bench_size_below_one_is_2(self, corpus, key, value, capsys):
        cfg_path = derived_config(corpus, f"out_bench_{key}_{value}", bench={key: value})
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert "bench points, q and p must be at least 1" in capsys.readouterr().err

    def test_predict_before_fit_is_3(self, corpus):
        cfg_path = derived_config(corpus, "out_nofit")
        assert main(["predict", "--config", str(cfg_path)]) == 3

    def test_insufficient_pairs_is_4(self, tmp_path, capsys):
        # Two-row experiments give one snapshot pair, fewer than q + p.
        rng = np.random.default_rng(0)
        schema = {
            "channels": [
                {"name": "u1", "unit": "au", "kind": "input"},
                {"name": "u2", "unit": "au", "kind": "input"},
                {"name": "y1", "unit": "au", "kind": "observable"},
            ]
        }
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        entries = []
        for i in range(1):
            name = f"e{i}.csv"
            rows = rng.normal(size=(2, 3))
            text = "u1,u2,y1\n" + "\n".join(",".join(f"{v}" for v in r) for r in rows)
            (tmp_path / name).write_text(text + "\n")
            entries.append({"experiment_id": f"e{i}", "path": name, "sample_rate_hz": 100.0})
        (tmp_path / "manifest.json").write_text(json.dumps({"experiments": entries}))
        config = {
            "manifest": "manifest.json",
            "schema": "schema.json",
            "output_dir": "out",
            "seed": 0,
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["fit", "--config", str(tmp_path / "config.json")]) == 4
        assert "numeric failure" in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
INTS, FLOATS, TEXT = st.integers(), st.floats(), st.text(max_size=6)


def mostly(valid):
    """A value from ``valid`` three times in four, any JSON value otherwise.

    Keys are checked in field order, so later keys are only reached when the
    earlier ones hold values of the right type.
    """
    return st.integers(0, 3).flatmap(lambda i: JSON_VALUES if i == 0 else valid)


def section(**keys):
    return mostly(st.fixed_dictionaries({}, optional={k: mostly(v) for k, v in keys.items()}))


CONFIG_PAYLOADS = st.fixed_dictionaries(
    {
        "manifest": mostly(st.just("manifest.json")),
        "schema": mostly(st.just("schema.json")),
        "output_dir": mostly(st.just("out_property")),
    },
    optional={
        "seed": mostly(INTS),
        "lpocv": section(p=INTS, repeats=INTS),
        "vif": section(remove_above=FLOATS, accept_below=FLOATS),
        "imputation": mostly(
            st.lists(section(channel=TEXT, sentinel=FLOATS, gate_channel=TEXT), max_size=2)
        ),
        "decimation_factors": mostly(st.lists(mostly(INTS), max_size=3)),
        "spectrogram": section(
            rows=INTS, cols=INTS, cap_hz=FLOATS, observable=st.none() | TEXT, power_channel=TEXT
        ),
        "bench": section(
            points=INTS, q=INTS, p=INTS, fit_target_us=FLOATS, rollout_target_us=FLOATS
        ),
        "standardize_inputs": mostly(st.booleans()),
        "standardize_observables": mostly(st.booleans()),
        "svd_rank": mostly(st.none() | INTS),
        "eval_mode": mostly(st.sampled_from(["rollout", "one-step"])),
        "predict_experiment": mostly(st.none() | TEXT),
        "position_channels": mostly(st.lists(TEXT, max_size=3)),
    },
)


class TestConfigSchema:
    @settings(max_examples=300)
    @given(payload=CONFIG_PAYLOADS)
    def test_any_payload_loads_or_raises_a_named_error(self, corpus, payload):
        path = corpus / "config_property.json"
        path.write_text(json.dumps(payload))
        try:
            cfg = load_run_config(path)
        except (ConfigError, DataError):
            return
        assert isinstance(cfg, RunConfig)
