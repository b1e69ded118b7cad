import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dedsid
from dedsid.cli import PIPELINE, _Run, build_parser, main
from dedsid.config import RunConfig, load_run_config
from dedsid.dataset import impute_off_state, load_datasets, load_manifest, load_schema
from dedsid.dmdc import load_model
from dedsid.errors import ConfigError, DataError
from dedsid.validation import predict_series
from helpers import mostly


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(root), "--experiments", "6", "--seed", "0"]) == 0
    return root


@pytest.fixture(scope="session")
def fitted_corpus(tmp_path_factory):
    """A 5-experiment corpus (seed 1) whose out/ holds fit's and cv's artifacts."""
    root = tmp_path_factory.mktemp("fitted")
    assert main(["synth", "--out", str(root), "--experiments", "5", "--seed", "1"]) == 0
    for command in ("fit", "cv"):
        assert main([command, "--config", str(root / "config.json")]) == 0
    return root


@pytest.fixture
def fitted(fitted_corpus, tmp_path):
    """A private copy of ``fitted_corpus``, free to edit."""
    return shutil.copytree(fitted_corpus, tmp_path / "corpus")


@pytest.fixture(scope="module")
def piped(corpus):
    """The config of one ``pipeline`` run over ``corpus``, and its output directory."""
    cfg_path = derived_config(corpus, "out_pipe")
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    return cfg_path, corpus / "out_pipe"


def derived_config(corpus, out_name, **overrides):
    payload = json.loads((corpus / "config.json").read_text())
    payload["output_dir"] = out_name
    payload.update(overrides)
    path = corpus / f"config_{out_name}.json"
    path.write_text(json.dumps(payload))
    return path


def one_entry(**changes) -> dict:
    """A one-experiment manifest payload with ``changes`` to its entry."""
    entry = {"experiment_id": "exp01", "path": "exp01.csv", "sample_rate_hz": 100.0}
    return {"experiments": [{**entry, **changes}]}


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
    """Every file under ``root``, subdirectories included, keyed by relative path."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def child_env() -> dict:
    """This environment, with the imported ``dedsid`` first on a child's PYTHONPATH."""
    src = str(Path(dedsid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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

    def test_rate_of_10_hz_or_less_finishes(self, tmp_path):
        # At 10 Hz the 0.05 s pulse grid rounds to zero samples, and a grid
        # of zero samples never advances through the recording.
        command = ["synth", "--out", str(tmp_path), "--experiments", "2", "--rate", "10"]
        proc = subprocess.run(
            [sys.executable, "-m", "dedsid.cli", *command],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "exp02.csv").exists()


class TestStages:
    def test_ingest_report(self, corpus):
        cfg_path = derived_config(corpus, "out_ingest")
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        payload = json.loads((corpus / "out_ingest" / "ingest_report.json").read_text())
        assert len(payload["experiments"]) == 6
        assert payload["dropped_channels"] == []
        assert "config_sha256" in payload["provenance"]

    def test_select_features_writes_only_its_report(self, corpus):
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
        assert "infill_flag" not in survivors
        assert sorted(read_tree(out)) == ["vif_report.json"]

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
        cfg_path = derived_config(corpus, "out_chain", predict_experiment="exp02")
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

        assert main(["predict", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "predict_report.json").read_text())
        assert report["experiment_id"] == "exp02"
        assert 0.0 <= report["within_bounds_fraction"] <= 1.0
        header = (out / "bounded_predictions.csv").read_text().splitlines()[1].split(",")
        assert header[0] == "t"
        assert "melt_pool_size_mm_pred" in header
        assert "melt_pool_size_mm_lower" in header
        geo_header = (out / "geometry.csv").read_text().splitlines()[1].split(",")
        assert geo_header[:4] == ["t", "x_mm", "y_mm", "z_mm"]

    def test_predict_artifacts_agree_with_the_rollout(self, corpus):
        cfg_path = derived_config(corpus, "out_predict_check")
        out = corpus / "out_predict_check"
        for command in ("fit", "cv", "predict"):
            assert main([command, "--config", str(cfg_path)]) == 0
        cfg = load_run_config(cfg_path)
        model = load_model(out / "model.json", _Run(cfg).provenance)
        datasets, _ = load_datasets(load_manifest(cfg.manifest), load_schema(cfg.schema))
        report = json.loads((out / "predict_report.json").read_text())
        ds = next(d for d in datasets if d.experiment_id == report["experiment_id"])
        for directive in cfg.imputation:
            ds = impute_off_state(ds, directive.channel, directive.sentinel, directive.gate_channel)
        predicted = predict_series(model, [ds])[0][1:]

        lines = (out / "bounded_predictions.csv").read_text().splitlines()
        header = lines[1].split(",")
        table = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
        col = {name: table[:, j] for j, name in enumerate(header)}
        flags = {}
        for j, name in enumerate(model.observable_names):
            measured = col[f"{name}_measured"]
            outside = (measured < col[f"{name}_lower"]) | (measured > col[f"{name}_upper"])
            assert np.array_equal(col[f"{name}_violation"], outside.astype(float))
            assert np.array_equal(col[f"{name}_pred"], predicted[:, j])
            flags[name] = int(outside.sum())
        assert report["steps"] == table.shape[0]
        assert report["violations"] == flags
        total = table.shape[0] * len(flags)
        assert report["within_bounds_fraction"] == 1.0 - sum(flags.values()) / total

    def test_predicted_experiment_is_in_the_provenance(self, fitted):
        # The experiment predict bounds is the config key predict_experiment,
        # so another experiment's predictions carry another config hash.
        def stamps(out):
            report = json.loads((out / "predict_report.json").read_text())
            provenance = report["provenance"]
            first_line = (out / "bounded_predictions.csv").read_text().splitlines()[0]
            inputs = json.dumps(provenance["inputs"], separators=(",", ":"))
            return report["experiment_id"], provenance["config_sha256"], first_line, inputs

        assert main(["predict", "--config", str(fitted / "config.json")]) == 0
        cfg_path = derived_config(fitted, "out_exp02", predict_experiment="exp02")
        for command in ("fit", "cv", "predict"):
            assert main([command, "--config", str(cfg_path)]) == 0
        default_id, default_sha, default_line, inputs = stamps(fitted / "out")
        other_id, other_sha, other_line, other_inputs = stamps(fitted / "out_exp02")
        assert (default_id, other_id) == ("exp01", "exp02")
        assert default_sha != other_sha
        assert other_inputs == inputs
        assert default_line == f"# config_sha256={default_sha} seed=1 inputs={inputs}"
        assert other_line == f"# config_sha256={other_sha} seed=1 inputs={inputs}"

    def test_predict_bounds_the_configured_eval_mode(self, fitted):
        cfg_path = derived_config(fitted, "out_one_step", eval_mode="one-step")
        for command in ("fit", "cv", "predict"):
            assert main([command, "--config", str(cfg_path)]) == 0
        run = _Run(load_run_config(cfg_path))
        model = load_model(run.out / "model.json", run.provenance)
        ds = next(d for d in run.datasets if d.experiment_id == "exp01")
        expected = predict_series(model, [ds], "one-step")[0][1:]
        lines = (run.out / "bounded_predictions.csv").read_text().splitlines()
        table = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
        col = dict(zip(lines[1].split(","), table.T))
        for j, name in enumerate(model.observable_names):
            assert np.array_equal(col[f"{name}_pred"], expected[:, j])
        assert not np.array_equal(expected, predict_series(model, [ds], "rollout")[0][1:])

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


class TestPipeline:
    def test_all_artifacts_and_determinism(self, piped):
        cfg_path, out = piped
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

    def test_every_stage_matches_pipeline(self, corpus):
        # One config (so one provenance) for both runs: the stages' out/ is
        # moved aside before the pipeline writes a fresh one.
        cfg_path = derived_config(corpus, "out_stage_by_stage")
        out = corpus / "out_stage_by_stage"
        for name in PIPELINE:
            assert main([name, "--config", str(cfg_path)]) == 0
        staged = read_tree(out)
        out.rename(corpus / "out_stage_by_stage_staged")
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        piped = read_tree(out)
        assert set(piped) == set(staged) | {"pipeline_report.json"}
        assert {n: piped[n] for n in staged} == staged
        stages = json.loads(piped["pipeline_report.json"])["stages"]
        assert stages == list(PIPELINE)

    def test_fit_alone_writes_the_pipeline_model(self, corpus):
        # The pipeline's fit reuses the snapshot summaries its cv built; a fit
        # run alone builds its own, to the same bytes.
        cfg_path = derived_config(corpus, "out_fit_alone")
        out = corpus / "out_fit_alone"
        assert main(["fit", "--config", str(cfg_path)]) == 0
        alone = (out / "model.json").read_bytes()
        out.rename(corpus / "out_fit_alone_first")
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert (out / "model.json").read_bytes() == alone

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

    def test_every_csv_names_its_inputs(self, corpus):
        cfg_path = derived_config(corpus, "out_digests", decimation_factors=[1, 2])
        for command in ("pipeline", "freq-study"):
            assert main([command, "--config", str(cfg_path)]) == 0
        out = corpus / "out_digests"
        provenance = json.loads((out / "ingest_report.json").read_text())["provenance"]
        tables = sorted(out.glob("*.csv"))
        assert len(tables) == 6
        for path in tables:
            first_line = path.read_text().splitlines()[0]
            stamp, inputs = first_line.split(" inputs=")
            assert stamp == f"# config_sha256={provenance['config_sha256']} seed=0"
            assert json.loads(inputs) == provenance["inputs"]

    def test_provenance_consistent_across_artifacts(self, corpus, piped):
        out = piped[1]
        blocks = [json.loads(p.read_text())["provenance"] for p in sorted(out.glob("*.json"))]
        assert len(blocks) == 9
        assert all(block == blocks[0] for block in blocks)
        files = {"schema": "schema.json", "manifest": "manifest.json"}
        files.update({f"exp{i:02d}": f"exp{i:02d}.csv" for i in range(1, 7)})
        sha = {k: hashlib.sha256((corpus / f).read_bytes()).hexdigest() for k, f in files.items()}
        assert blocks[0]["inputs"] == sha
        hashes = {blocks[0]["config_sha256"]}
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

    @pytest.mark.parametrize("section", ["lpocv", "vif", "spectrogram"])
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
            (
                {"imputation": [{"channel": "c", "sentinel": float("nan"), "gate_channel": "g"}]},
                "imputation[0].sentinel",
            ),
            ({"vif": {"accept_below": float("inf")}}, "vif.accept_below"),
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
            "sentinel_nan",
            "accept_below_infinity",
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

    def test_pipeline_refuses_too_few_experiments_before_writing(self, corpus):
        cfg_path = derived_config(corpus, "out_toofew_pipe", lpocv={"p": 6, "repeats": 2})
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert not (corpus / "out_toofew_pipe").exists()

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
            ("rows", 0, "spectrogram rows and cols must be at least 1, got 0x100"),
            ("cols", -3, "spectrogram rows and cols must be at least 1, got 100x-3"),
            ("cap_hz", float("nan"), "key 'spectrogram.cap_hz' must be a finite number, got nan"),
            ("cap_hz", float("inf"), "key 'spectrogram.cap_hz' must be a finite number, got inf"),
            ("cap_hz", 0.0, "spectrogram cap_hz must be finite and positive, got 0.0"),
            ("cap_hz", -1.0, "spectrogram cap_hz must be finite and positive, got -1.0"),
        ],
        ids=["rows_0", "cols_negative", "cap_nan", "cap_inf", "cap_0", "cap_negative"],
    )
    def test_bad_spectrogram_grid_or_cap_is_2(self, corpus, key, value, detail, capsys):
        cfg_path = derived_config(corpus, f"out_sg_{key}_{value}", spectrogram={key: value})
        assert main(["spectrogram", "--config", str(cfg_path)]) == 2
        assert detail in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, payload",
        [
            ("schema.json", {"fields": []}),
            ("schema.json", {"channels": [{"name": "u1", "unit": "au", "kind": "sensor"}]}),
            ("schema.json", [{"name": "u1", "unit": "au", "kind": "input"}]),
            ("manifest.json", {"experiments": [{"path": "exp01.csv", "sample_rate_hz": 100.0}]}),
            ("manifest.json", ["exp01.csv"]),
            ("manifest.json", one_entry(path=5)),
            ("manifest.json", one_entry(experiment_id=1)),
            ("manifest.json", one_entry(sample_rate_hz=0)),
            ("manifest.json", one_entry(sample_rate_hz=float("nan"))),
            ("manifest.json", one_entry(sample_rate_hz="100")),
            ("manifest.json", one_entry(sample_rate_hz=True)),
        ],
        ids=[
            "no_channels",
            "bad_kind",
            "schema_list",
            "no_experiment_id",
            "manifest_list",
            "path_number",
            "experiment_id_number",
            "rate_zero",
            "rate_nan",
            "rate_string",
            "rate_bool",
        ],
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
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if isinstance(payload, dict):  # the run's provenance, so the envelope itself is read
            provenance = _Run(load_run_config(cfg_path)).provenance
            text = json.dumps({"provenance": provenance, **payload})
        (corpus / "out_bad_envelope" / "cv_report.json").write_text(text)
        assert main(["predict", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "cv_report.json" in err
        if isinstance(payload, dict):
            assert "no uncertainty envelope" in err

    @pytest.mark.parametrize(
        "command, upstream, refit",
        [
            ("predict", "cv", "--seed"),
            ("predict", "fit", "--seed"),
            ("spectrogram", "fit", "--seed"),
            ("predict", "fit", "version_1"),
            ("spectrogram", "fit", "version_1"),
        ],
        ids=[
            "predict_cv_other_seed",
            "predict_model_other_seed",
            "spectrogram_model_other_seed",
            "predict_model_version_1",
            "spectrogram_model_version_1",
        ],
    )
    def test_stale_upstream_artifact_is_3(self, corpus, command, upstream, refit, capsys):
        cfg_path = derived_config(corpus, f"out_stale_{command}_{upstream}_{refit}")
        out = corpus / f"out_stale_{command}_{upstream}_{refit}"
        assert main(["fit", "--config", str(cfg_path)]) == 0
        assert main(["cv", "--config", str(cfg_path)]) == 0
        if refit == "--seed":
            assert main([upstream, "--config", str(cfg_path), "--seed", "5"]) == 0
            detail = "was written under another config or seed"
        else:  # a model saved before model files carried their provenance
            payload = json.loads((out / "model.json").read_text())
            del payload["provenance"]
            payload["version"] = 1
            (out / "model.json").write_text(json.dumps(payload))
            detail = "model file version 1 not supported (expected 2)"
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert detail in err
        assert ("cv_report.json" if upstream == "cv" else "model") in err

    @pytest.mark.parametrize("command", ["predict", "spectrogram"])
    def test_model_of_other_observables_is_3(self, corpus, tmp_path, command, capsys):
        # Same config and seed, but the schema changed between fit and this
        # stage: the model lacks an observable, and the schema's digest differs.
        schema = json.loads((corpus / "schema.json").read_text())
        relabelled = {
            "channels": [
                {**c, "kind": "input"} if c["name"] == "melt_pool_size_mm" else c
                for c in schema["channels"]
            ]
        }
        payload = json.loads((corpus / "config.json").read_text())
        payload["manifest"] = str(corpus / "manifest.json")
        (tmp_path / "config.json").write_text(json.dumps(payload))
        cfg_path = str(tmp_path / "config.json")
        (tmp_path / "schema.json").write_text(json.dumps(relabelled))
        assert main(["fit", "--config", cfg_path]) == 0
        assert main(["cv", "--config", cfg_path]) == 0
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "model.json was built from other inputs (schema differ)" in err
        assert not (tmp_path / "out" / "predict_report.json").exists()
        assert not (tmp_path / "out" / "spectrogram.json").exists()

    @pytest.mark.parametrize("command", ["predict", "spectrogram"])
    def test_artifacts_of_other_experiments_are_3(self, fitted, command, capsys):
        # Same config and seed, but the manifest lost an experiment after fit
        # and cv: model and envelope were built from five experiments, the run
        # has four.
        root = fitted
        cfg_path = str(root / "config.json")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["experiments"] = [
            e for e in manifest["experiments"] if e["experiment_id"] != "exp05"
        ]
        (root / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert "model.json was built from other inputs (exp05, manifest differ)" in err
        assert not (root / "out" / "predict_report.json").exists()
        assert not (root / "out" / "spectrogram.json").exists()
        if command == "predict":  # a refit model leaves the envelope stale
            assert main(["fit", "--config", cfg_path]) == 0
            capsys.readouterr()
            assert main([command, "--config", cfg_path]) == 3
            err = capsys.readouterr().err
            assert "cv_report.json was built from other inputs (exp05, manifest differ)" in err

    @pytest.mark.parametrize("command", ["predict", "spectrogram"])
    def test_edited_experiment_file_is_3_until_restored(self, fitted, command, capsys):
        # Same config, seed, ids and manifest; one experiment's readings
        # changed after fit and cv.
        cfg_path = str(fitted / "config.json")
        path = fitted / "exp03.csv"
        original = path.read_bytes()
        header = original.decode().splitlines()[0]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        data[:, header.split(",").index("melt_pool_temp_c")] *= 1.5
        np.savetxt(path, data, delimiter=",", header=header, comments="")
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 3
        assert "model.json was built from other inputs (exp03 differ)" in capsys.readouterr().err
        assert not (fitted / "out" / "predict_report.json").exists()
        assert not (fitted / "out" / "spectrogram.json").exists()
        path.write_bytes(original)
        assert main([command, "--config", cfg_path]) == 0

    def test_changed_sample_rate_is_3(self, fitted, capsys):
        manifest = json.loads((fitted / "manifest.json").read_text())
        manifest["experiments"][1]["sample_rate_hz"] = 50.0
        (fitted / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["predict", "--config", str(fitted / "config.json")]) == 3
        err = capsys.readouterr().err
        assert "model.json was built from other inputs (manifest differ)" in err
        assert not (fitted / "out" / "predict_report.json").exists()

    @pytest.mark.parametrize("reserved", ["schema", "manifest"])
    def test_reserved_experiment_id_is_3(self, fitted, reserved, capsys):
        # The id would key the same digest slot as the schema or manifest.
        manifest = json.loads((fitted / "manifest.json").read_text())
        manifest["experiments"][0]["experiment_id"] = reserved
        (fitted / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["ingest", "--config", str(fitted / "config.json")]) == 3
        assert f"experiment id {reserved!r} is reserved" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "spectrogram"])
    def test_model_with_a_renamed_observable_is_3(self, fitted, command, capsys):
        # A hand-edited model file: provenance intact, one observable renamed.
        path = fitted / "out" / "model.json"
        payload = json.loads(path.read_text())
        payload["observables"][0] = "melt_pool_area_mm2"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([command, "--config", str(fitted / "config.json")]) == 3
        assert "model.json fits observables ['melt_pool_area_mm2'," in capsys.readouterr().err
        assert not (fitted / "out" / "predict_report.json").exists()
        assert not (fitted / "out" / "spectrogram.json").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--experiments", "0"),
            ("--experiments", "-2"),
            ("--rate", "0"),
            ("--rate", "-5"),
            ("--rate", "nan"),
            ("--rate", "inf"),
            ("--dropout", "2"),
            ("--dropout", "-0.5"),
            ("--dropout", "nan"),
        ],
    )
    def test_bad_synth_flag_is_2(self, tmp_path, flag, value, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), flag, value]) == 2
        assert f"configuration error: {flag} must" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_is_an_argparse_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--points", "5000"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "value",
        [
            {"points": 1000000, "q": 3, "p": 21, "fit_target_us": 25.0, "rollout_target_us": 150.0},
            None,
            [],
            3,
        ],
        ids=["former_defaults", "None", "value1", "3"],
    )
    @pytest.mark.parametrize("command", ["pipeline", "cv"])
    def test_bench_section_is_2(self, corpus, command, value, capsys):
        # The section older configs could carry, well-formed or not.
        cfg_path = derived_config(corpus, "out_bench_section", bench=value)
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "unknown config key 'bench'" in capsys.readouterr().err
        assert not (corpus / "out_bench_section").exists()

    def test_predict_experiment_flag_is_an_argparse_error(self, fitted, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--config", str(fitted / "config.json"), "--experiment", "exp02"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --experiment exp02" in capsys.readouterr().err
        assert not (fitted / "out" / "predict_report.json").exists()

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


INTS, FLOATS, TEXT = st.integers(), st.floats(), st.text(max_size=6)


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


class TestImports:
    # Child processes, because this session has imported every module already.
    @staticmethod
    def child_lines(code: str) -> list[str]:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_pipeline_path_skips_plant_and_gcode(self):
        code = (
            "import sys, dedsid.cli; "
            "print(sorted(m for m in ('dedsid.plant', 'dedsid.gcode') if m in sys.modules)); "
            "from dedsid import make_demo_experiments, simulate; "
            "print(make_demo_experiments.__module__, simulate.__module__)"
        )
        assert self.child_lines(code) == ["[]", "dedsid.plant dedsid.plant"]

    def test_config_loads_no_pipeline_module(self):
        # config.py declares the defaults the pipeline modules import, so it
        # must not import them in turn.
        code = (
            "import sys, dedsid.config; "
            "print(sorted(m for m in ('dedsid.validation', 'dedsid.dmdc') if m in sys.modules)); "
            "from dedsid import FitConfig, run_lpocv; "
            "print(FitConfig.__module__, run_lpocv.__module__)"
        )
        assert self.child_lines(code) == ["[]", "dedsid.config dedsid.validation"]

    def test_unknown_package_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            dedsid.nope  # noqa: B018


class TestReadme:
    def test_cli_table_lists_every_subcommand(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(documented) == sorted(sub.choices)
