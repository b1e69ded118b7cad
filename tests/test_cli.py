import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import dedsid
from dedsid import cli, dmdc, validation
from dedsid.artifacts import from_plain
from dedsid.cli import PIPELINE, _Run, _write_corpus, build_parser, main
from dedsid.config import RunConfig, default_config_payload, load_run_config
from dedsid.dataset import impute_off_state, load_datasets, load_manifest, load_schema
from dedsid.dmdc import load_model
from dedsid.errors import ConfigError, DataError
from dedsid.spectral import MIN_SEGMENT_SAMPLES, segment_pulses
from dedsid.validation import draw_splits, predict_series
from helpers import diverging_corpus, mostly


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


# An envelope entry for each observable of the demo corpus.
HALF_WIDTHS = dict.fromkeys(["melt_pool_size_mm", "melt_pool_temp_c", "working_distance_mm"], 1.0)


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


def artifacts(tree: dict) -> dict:
    """``tree`` less the parse cache under ``.parsed/``."""
    return {name: data for name, data in tree.items() if not name.startswith(".parsed/")}


def columns_of(path: Path) -> dict:
    """The columns of a CSV artifact, keyed by its header."""
    lines = path.read_text().splitlines()
    return dict(zip(lines[1].split(","), np.loadtxt(lines[2:], delimiter=",", ndmin=2).T))


def assert_bounds_from_scores(out: Path) -> None:
    """Each observable's bounds in ``bounded_predictions.csv`` are its
    prediction -/+ h, h = rmse_test mean + ci95 of ``cv_report.json``, bit for bit."""
    rmse = json.loads((out / "cv_report.json").read_text())["cv"]["aggregates"]["rmse_test"]
    col = columns_of(out / "bounded_predictions.csv")
    for obs, score in rmse.items():
        h = score["mean"] + score["ci95"]
        assert np.array_equal(col[f"{obs}_lower"], col[f"{obs}_pred"] - h)
        assert np.array_equal(col[f"{obs}_upper"], col[f"{obs}_lower"] + 2 * h)


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
        assert sorted(artifacts(read_tree(out))) == ["vif_report.json"]
        assert len(list((out / ".parsed").iterdir())) == 6

    def test_dist_report(self, corpus):
        cfg_path = derived_config(corpus, "out_dist")
        assert main(["dist-report", "--config", str(cfg_path)]) == 0
        out = corpus / "out_dist"
        payload = json.loads((out / "dist_report.json").read_text())
        assert len(payload["results"]) == 9  # 3 pairs x 3 observables
        assert sorted(artifacts(read_tree(out))) == ["dist_report.json"]

    def test_fit_cv_predict_chain(self, corpus):
        cfg_path = derived_config(corpus, "out_chain", predict_experiment="exp02")
        out = corpus / "out_chain"
        assert main(["fit", "--config", str(cfg_path)]) == 0
        model = load_model(out / "model.json")
        assert model.state_dim == 3
        assert model.input_dim == 7

        assert main(["cv", "--config", str(cfg_path)]) == 0
        payload = json.loads((out / "cv_report.json").read_text())
        assert list(payload) == ["provenance", "cv"]
        assert payload["cv"]["p"] == 3 and payload["cv"]["repeats"] == 10
        assert set(payload["cv"]["aggregates"]["rmse_test"]) == set(HALF_WIDTHS)

        assert main(["predict", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "predict_report.json").read_text())
        assert report["experiment_id"] == "exp02"
        assert 0.0 <= report["within_bounds_fraction"] <= 1.0
        assert "geometry_written" not in report
        header = (out / "bounded_predictions.csv").read_text().splitlines()[1].split(",")
        assert header[:5] == ["t", "x_mm", "y_mm", "z_mm", "melt_pool_size_mm_pred"]
        assert "melt_pool_size_mm_lower" in header
        assert sorted(artifacts(read_tree(out))) == [
            "bounded_predictions.csv", "cv_report.json", "model.json", "predict_report.json"
        ]

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

    def test_bounds_come_from_the_cv_scores(self, fitted):
        # An envelope planted beside the scores, as the reports of earlier
        # versions carried one, bounds nothing.
        path = fitted / "out" / "cv_report.json"
        payload = json.loads(path.read_text())
        payload["envelope"] = {"rmse": HALF_WIDTHS, "ci95": HALF_WIDTHS}
        path.write_text(json.dumps(payload))
        assert main(["predict", "--config", str(fitted / "config.json")]) == 0
        assert_bounds_from_scores(fitted / "out")

    def test_absent_position_channel_leaves_positions_out(self, fitted):
        cfg_path = derived_config(fitted, "out_no_w", position_channels=["x_mm", "w_mm"])
        for command in ("fit", "cv", "predict"):
            assert main([command, "--config", str(cfg_path)]) == 0
        lines = (fitted / "out_no_w" / "bounded_predictions.csv").read_text().splitlines()
        assert lines[1].startswith("t,melt_pool_size_mm_pred,")
        assert "x_mm" not in lines[1].split(",")

    def test_spectrogram_with_and_without_model(self, corpus, capsys):
        # Run alone, spectrogram scores the run's model, so without one it
        # writes nothing; after fit it writes the pipeline's three files.
        cfg_path = derived_config(corpus, "out_sg")
        out = corpus / "out_sg"
        assert main(["spectrogram", "--config", str(cfg_path)]) == 3
        assert "model.json not found; run the fit stage first" in capsys.readouterr().err
        assert not out.exists()

        assert main(["fit", "--config", str(cfg_path)]) == 0
        assert main(["spectrogram", "--config", str(cfg_path)]) == 0
        alone = artifacts(read_tree(out))
        assert sorted(alone) == [
            "model.json", "spectrogram.csv", "spectrogram.json", "spectrogram_model.csv"
        ]
        assert json.loads(alone["spectrogram.json"])["model_similarity"] > 0.9
        out.rename(corpus / "out_sg_alone")
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        piped = read_tree(out)
        assert {name: piped[name] for name in alone} == alone

    def test_freq_study(self, corpus):
        cfg_path = derived_config(
            corpus, "out_freq", decimation_factors=[1, 2], lpocv={"p": 2, "repeats": 2}
        )
        assert main(["freq-study", "--config", str(cfg_path)]) == 0
        assert sorted(artifacts(read_tree(corpus / "out_freq"))) == ["freq_study.json"]
        payload = json.loads((corpus / "out_freq" / "freq_study.json").read_text())
        assert [row["factor"] for row in payload["rows"]] == [1, 2]
        assert payload["rows"][1]["sample_rate_hz"] == 50.0


def held_arrays(root) -> list[np.ndarray]:
    """The buffers that ``root`` holds: every array reachable from it through
    containers and instance attributes, traced to the array owning its memory."""
    seen, found, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        else:
            stack.extend(gc.get_referents(obj))
    return list(found.values())


def pulse_lengths(cfg_path) -> np.ndarray:
    """The sample count of every ``segment_pulses`` run of the run's power channel."""
    run = _Run(load_run_config(cfg_path))
    power = run.cfg.spectrogram.power_channel
    return np.concatenate([np.diff(segment_pulses(ds.column(power))).ravel() for ds in run.datasets])


class TestRecordedFacts:
    def test_pulse_counts_are_the_segment_pulses_runs(self, piped):
        cfg_path, out = piped
        summary = json.loads((out / "spectrogram.json").read_text())
        lengths = pulse_lengths(cfg_path)
        assert summary["pulses_found"] == lengths.size
        assert summary["pulses_skipped"] == np.count_nonzero(lengths < MIN_SEGMENT_SAMPLES) > 0

    def test_slow_corpus_runs_clean_under_warnings_as_errors(self, tmp_path):
        # At 20 Hz most pulses are shorter than a spectrum needs; the run
        # records them in spectrogram.json and says nothing on stderr.
        config = str(tmp_path / "config.json")
        for args in (
            ["synth", "--out", str(tmp_path), "--experiments", "6", "--seed", "3", "--rate", "20"],
            ["pipeline", "--config", config],
            ["freq-study", "--config", config],
        ):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "dedsid.cli", *args],
                capture_output=True, text=True, env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"},
            )
            assert (proc.returncode, proc.stderr) == (0, "")
        summary = json.loads((tmp_path / "out" / "spectrogram.json").read_text())
        lengths = pulse_lengths(config)
        assert summary["pulses_skipped"] == np.count_nonzero(lengths < MIN_SEGMENT_SAMPLES)
        assert summary["pulses_skipped"] > summary["pulses_found"] / 2
        rows = json.loads((tmp_path / "out" / "freq_study.json").read_text())["rows"]
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert {row["min_svd_rank_used"] for row in rows} == {model["model"]["svd_rank_used"]}


class TestPipeline:
    def test_run_holds_one_array_per_experiment_after_impute(self, corpus):
        # Imputation rewrites a sentinel in every experiment of the corpus,
        # so each imputed dataset is a copy; the run then keeps the ingest
        # report, not the datasets it was read into.
        run = _Run(load_run_config(derived_config(corpus, "out_one_copy")))
        for name in ("ingest", "impute"):
            cli.STAGES[name][1](run)
            run.parse_cache.save(keep=run.provenance["inputs"].values())
        counts = run.imputed[1].values()
        assert all(c["sentinels_before"] > c["sentinels_after"] for c in counts)
        held = {id(a) for a in held_arrays(run)}
        assert held == {id(ds.data) for ds in run.datasets}
        assert len(held) == len(run.manifest.entries)
        assert run.names("observable") == list(HALF_WIDTHS)

    def test_all_artifacts_and_determinism(self, piped):
        cfg_path, out = piped
        expected = {
            "ingest_report.json",
            "impute_report.json",
            "vif_report.json",
            "dist_report.json",
            "cv_report.json",
            "model.json",
            "predict_report.json",
            "bounded_predictions.csv",
            "spectrogram.csv",
            "spectrogram_model.csv",
            "spectrogram.json",
        }
        assert set(artifacts(read_tree(out))) == expected
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
        assert set(piped) == set(staged)  # the pipeline adds no file
        assert piped == staged

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
        assert len(tables) == 3
        for path in tables:
            first_line = path.read_text().splitlines()[0]
            stamp, inputs = first_line.split(" inputs=")
            assert stamp == f"# config_sha256={provenance['config_sha256']} seed=0"
            assert json.loads(inputs) == provenance["inputs"]

    def test_provenance_consistent_across_artifacts(self, corpus, piped):
        out = piped[1]
        blocks = [json.loads(p.read_text())["provenance"] for p in sorted(out.glob("*.json"))]
        assert len(blocks) == 8
        assert all(block == blocks[0] for block in blocks)
        files = {"schema": "schema.json", "manifest": "manifest.json"}
        files.update({f"exp{i:02d}": f"exp{i:02d}.csv" for i in range(1, 7)})
        sha = {k: hashlib.sha256((corpus / f).read_bytes()).hexdigest() for k, f in files.items()}
        assert blocks[0]["inputs"] == sha
        hashes = {blocks[0]["config_sha256"]}
        first_line = (out / "bounded_predictions.csv").read_text().splitlines()[0]
        hashes.add(first_line.split("config_sha256=")[1].split()[0])
        assert len(hashes) == 1

    def test_bounds_come_from_the_cv_scores(self, piped):
        assert_bounds_from_scores(piped[1])

    def test_dist_report_scores_the_cv_folds(self, piped):
        # dist-report and cv read one draw of splits: the k-th test-to-train
        # distance is that of fold k's test experiments against the rest.
        cfg_path, out = piped
        datasets = _Run(load_run_config(cfg_path)).datasets
        folds = json.loads((out / "cv_report.json").read_text())["cv"]["folds"]
        results = json.loads((out / "dist_report.json").read_text())["results"]
        shifts = [r for r in results if r["pair_label"] == "test_to_train"]
        assert len(shifts) == 3
        for result in shifts:
            assert len(result["distances"]) == len(folds) == 10
            column = {ds.experiment_id: ds.column(result["channel"]) for ds in datasets}
            for fold, got in zip(folds, result["distances"]):
                test = np.concatenate([column[i] for i in fold["test_ids"]])
                train = np.concatenate([v for i, v in column.items() if i not in fold["test_ids"]])
                assert got == pytest.approx(scipy.stats.wasserstein_distance(test, train), rel=1e-9)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str):
    """``perfbench/<name>.py``, imported without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.fixture(scope="module")
def rated(corpus):
    """``freq-study`` run alone, then ``pipeline`` and ``freq-study`` in the
    same output directory: the output directory and the first run's
    ``freq_study.*`` bytes."""
    cfg_path = derived_config(corpus, "out_rate")
    out = corpus / "out_rate"
    assert main(["freq-study", "--config", str(cfg_path)]) == 0
    alone = read_tree(out)
    for command in ("pipeline", "freq-study"):
        assert main([command, "--config", str(cfg_path)]) == 0
    return out, alone


class TestRateStudy:
    def test_factor_one_is_the_cv_score(self, rated):
        out = rated[0]
        aggregates = json.loads((out / "cv_report.json").read_text())["cv"]["aggregates"]
        row = json.loads((out / "freq_study.json").read_text())["rows"][0]
        assert row["factor"] == 1
        assert row["r2_test"] == aggregates["r2_test"]
        assert row["rmse_test"] == aggregates["rmse_test"]

    def test_alone_and_after_pipeline_write_the_same_study(self, rated):
        out, alone = rated
        after = read_tree(out)
        assert set(artifacts(alone)) == {"freq_study.json"}
        assert {name: after[name] for name in alone} == alone

    def test_benchmark_checks_pass(self, corpus, rated):
        assert perfbench_module("checks").check_corpus_round(corpus, rated[0], True) == []

    def test_one_full_rate_pass(self, corpus, monkeypatch):
        # The screening pass, narrowed, is factor 1's; only factor 2 builds
        # a pass of its own.
        passes = []

        def counted(build):
            def wrapper(datasets, inputs, observables):
                snapshots = build(datasets, inputs, observables)
                passes.append(([ds.row_count for ds in datasets], snapshots.pair_count))
                return snapshots

            return wrapper

        monkeypatch.setattr(cli, "build_snapshots", counted(cli.build_snapshots))
        monkeypatch.setattr(validation, "build_snapshots", counted(validation.build_snapshots))
        cfg_path = derived_config(
            corpus, "out_passes", decimation_factors=[1, 2], lpocv={"p": 2, "repeats": 2}
        )
        assert main(["freq-study", "--config", str(cfg_path)]) == 0
        (rows, full), (slow_rows, slow) = passes
        assert full == sum(rows) - len(rows)
        assert slow_rows == [math.ceil(m / 2) for m in rows]
        assert slow == sum(slow_rows) - len(slow_rows)

    def test_alone_without_factor_one_runs_no_full_rate_cv(self, corpus, monkeypatch):
        # Factors without 1 are scored under the screened config: cv's folds
        # at the full rate would only repeat what a cv report holds.
        cfg_path = derived_config(
            corpus, "out_no_one", decimation_factors=[2, 5], lpocv={"p": 2, "repeats": 2}
        )
        out = corpus / "out_no_one"
        calls = []

        def counted(fn):
            def wrapper(datasets, *args, **kwargs):
                calls.append(datasets[0].sample_rate_hz)
                return fn(datasets, *args, **kwargs)

            return wrapper

        for module in (cli, validation):
            monkeypatch.setattr(module, "run_lpocv", counted(module.run_lpocv))
        assert main(["freq-study", "--config", str(cfg_path)]) == 0
        assert calls == [50.0, 20.0]
        alone = (out / "freq_study.json").read_bytes()
        assert main(["cv", "--config", str(cfg_path)]) == 0
        calls.clear()
        assert main(["freq-study", "--config", str(cfg_path)]) == 0  # reads the fresh report
        assert calls == [50.0, 20.0]
        assert (out / "freq_study.json").read_bytes() == alone

    def test_study_ignores_missing_and_stale_reports(self, corpus):
        # freq_study.* are the same bytes whether the run's cv and vif
        # reports are absent, fresh, or another seed's.
        cfg_path = derived_config(
            corpus, "out_reuse", decimation_factors=[1, 2], lpocv={"p": 2, "repeats": 2}
        )
        out = corpus / "out_reuse"

        def study() -> bytes:
            assert main(["freq-study", "--config", str(cfg_path)]) == 0
            return (out / "freq_study.json").read_bytes()

        alone = study()
        shutil.rmtree(out)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert study() == alone
        assert main(["pipeline", "--config", str(cfg_path), "--seed", "5"]) == 0
        stale = json.loads((out / "cv_report.json").read_text())["provenance"]
        assert stale["seed"] == 5
        assert study() == alone

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cv: cv["aggregates"]["r2_test"]["melt_pool_temp_c"].update(mean="x"),
            lambda cv: cv.update(finite_folds="3"),
            lambda cv: cv["config"].update(inputs="x_mm"),
        ],
        ids=["r2_mean_string", "finite_folds_string", "config_inputs_string"],
    )
    def test_study_ignores_undecodable_cv_report(self, corpus, edit, request):
        # A hand-edited report under the run's provenance counts as absent.
        out_name = f"out_undecodable_{request.node.callspec.id}"
        cfg_path = derived_config(
            corpus, out_name, decimation_factors=[1, 2], lpocv={"p": 2, "repeats": 2}
        )
        out = corpus / out_name

        def study() -> bytes:
            assert main(["freq-study", "--config", str(cfg_path)]) == 0
            return (out / "freq_study.json").read_bytes()

        alone = study()
        shutil.rmtree(out)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        payload = json.loads((out / "cv_report.json").read_text())
        edit(payload["cv"])
        (out / "cv_report.json").write_text(json.dumps(payload))
        assert study() == alone

    def test_after_pipeline_parses_and_scores_full_rate_once(self, corpus, monkeypatch):
        cfg_path = derived_config(
            corpus, "out_once", decimation_factors=[1, 2, 5], lpocv={"p": 2, "repeats": 2}
        )
        calls = dict.fromkeys(["loadtxt", "run_lpocv", "build_snapshots"], 0)
        reads = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def recorded(fn):
            def wrapper(path, *args, **kwargs):
                reads.append(Path(path).name)
                return fn(path, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
        for module in (cli, validation):
            for name in ("run_lpocv", "build_snapshots"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for module, name in [(cli, "read_json_object"), (dmdc, "read_json_object")]:
            monkeypatch.setattr(module, name, recorded(getattr(module, name)))
        monkeypatch.setattr(cli, "load_model", recorded(cli.load_model))
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert calls == {"loadtxt": 6, "run_lpocv": 1, "build_snapshots": 1}
        # predict and spectrogram use what cv and fit made.
        assert reads == []
        calls.update(dict.fromkeys(calls, 0))
        assert main(["freq-study", "--config", str(cfg_path)]) == 0
        # Factor 1 is cv's row, and cv's config names the survivors; only
        # factors 2 and 5 build a pass and fold.
        assert calls == {"loadtxt": 0, "run_lpocv": 2, "build_snapshots": 2}
        assert reads == ["cv_report.json"]
        row = json.loads((corpus / "out_once" / "freq_study.json").read_text())["rows"][0]
        cv = json.loads((corpus / "out_once" / "cv_report.json").read_text())["cv"]
        assert row["finite_folds"] == cv["finite_folds"] == 2

    def test_traced_benchmark_commands_run(self, corpus, tmp_path):
        # The benchmark's traced path (worker.py wraps every public layer
        # function and counts its work) runs pipeline, then freq-study.
        spans = perfbench_module("spans")
        cfg_path = derived_config(corpus, "out_traced", decimation_factors=[1, 2])
        env = {**child_env(), "PYTHONDONTWRITEBYTECODE": "1"}
        totals = []
        for command in ("pipeline", "freq-study"):
            trace = tmp_path / f"{command}.json"
            proc = subprocess.run(
                [sys.executable, str(PERFBENCH / "worker.py"), "cli", "--trace", str(trace),
                 "--", command, "--config", str(cfg_path)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            totals.append(spans.span_totals(spans.load_spans(trace)))
        rows = [ds.row_count for ds in _Run(load_run_config(cfg_path)).datasets]
        for part in totals:
            assert part["dataset.ingest_csv.rows"] == sum(rows)
        piped, rated = totals
        assert piped["validation.run_lpocv.folds"] == rated["validation.run_lpocv.folds"] == 10
        # The study's only pass is factor 2's.
        assert rated["dmdc.build_snapshots.pairs"] == sum(math.ceil(m / 2) - 1 for m in rows)


def diverging_config(root: Path, long_scale: float) -> Path:
    """A corpus of ``diverging_corpus(long_scale)`` under ``root`` and its
    config: leave-one-out over 6 seeded draws."""
    datasets = diverging_corpus(long_scale)
    _write_corpus(datasets, datasets[0].channels, root)
    payload = default_config_payload("manifest.json", "schema.json", "out", seed=0)
    payload["lpocv"] = {"p": 1, "repeats": 6}
    (root / "config.json").write_text(json.dumps(payload))
    return root / "config.json"


def refuse_constant(name):
    raise ValueError(f"{name} in JSON")


class TestDivergedFolds:
    def test_diverged_folds_are_flagged_and_left_out(self, tmp_path):
        cfg_path = diverging_config(tmp_path, long_scale=50.0)
        assert main(["cv", "--config", str(cfg_path)]) == 0
        text = (tmp_path / "out" / "cv_report.json").read_text()
        payload = json.loads(text, parse_constant=refuse_constant)
        assert list(payload) == ["provenance", "cv"]
        cv = payload["cv"]
        diverged = [fold["diverged"] for fold in cv["folds"]]
        assert diverged == [fold["test_ids"] == ["long"] for fold in cv["folds"]]
        assert 0 < sum(diverged) < len(diverged)
        finite = [fold for fold in cv["folds"] if not fold["diverged"]]
        assert cv["finite_folds"] == len(finite)
        for fold in cv["folds"]:
            if fold["diverged"]:
                assert fold["rmse_test"] == {"y": None}
        for metric, per_obs in cv["aggregates"].items():
            vals = np.array([fold[metric]["y"] for fold in finite])
            assert per_obs["y"]["mean"] == float(vals.mean())

    def test_fold_of_an_unstable_fit_is_diverged(self, tmp_path):
        # At factor 50 the fold that holds out ``long`` fits A of radius
        # above 1 from the short experiments, yet its rollout stays finite.
        cfg_path = diverging_config(tmp_path, long_scale=50.0)
        payload = json.loads(cfg_path.read_text())
        payload["decimation_factors"] = [1, 50]
        cfg_path.write_text(json.dumps(payload))
        assert main(["cv", "--config", str(cfg_path)]) == 0
        cv = json.loads((tmp_path / "out" / "cv_report.json").read_text())["cv"]
        diverged = [fold["diverged"] for fold in cv["folds"]]
        assert diverged == [fold["test_ids"] == ["long"] for fold in cv["folds"]]
        assert main(["freq-study", "--config", str(cfg_path)]) == 0
        full, slow = json.loads((tmp_path / "out" / "freq_study.json").read_text())["rows"]
        assert full["finite_folds"] == cv["finite_folds"]
        assert slow["factor"] == 50 and slow["finite_folds"] == 5
        assert -10 < slow["r2_test"]["y"]["mean"] < 1

    def test_every_fold_diverged_is_4(self, tmp_path, capsys):
        cfg_path = diverging_config(tmp_path, long_scale=0.01)
        assert main(["cv", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert (
            "numeric failure: all 6 cross-validation folds diverged: the fitted A has "
            "spectral radius above 1 in 6, the rollout overflowed in 6"
        ) in err
        assert not (tmp_path / "out" / "cv_report.json").exists()


class TestParseCache:
    def test_damaged_entries_are_parsed_again(self, fitted, monkeypatch):
        cfg_path = str(fitted / "config.json")
        out = fitted / "out"
        before = read_tree(out)
        entries = sorted((out / ".parsed").iterdir())
        assert len(entries) == 5
        entries[0].write_bytes(entries[0].read_bytes()[:-100])
        np.save(entries[1], np.zeros((4, 3)))
        parses, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or loadtxt(*a, **k))
        assert main(["cv", "--config", cfg_path]) == 0
        assert len(parses) == 2
        assert read_tree(out) == before

    def test_edited_file_misses_and_the_run_follows_its_bytes(self, fitted):
        path = fitted / "exp03.csv"
        old = hashlib.sha256(path.read_bytes()).hexdigest()
        header = path.read_text().splitlines()[0]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        data[:, header.split(",").index("melt_pool_temp_c")] *= 1.5
        np.savetxt(path, data, delimiter=",", header=header, comments="")
        cfg_path = fitted / "config.json"
        assert main(["ingest", "--config", str(cfg_path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        report = json.loads((fitted / "out" / "ingest_report.json").read_text())
        assert report["provenance"]["inputs"]["exp03"] == digest
        # The old content's entry goes with the run that no longer reads it.
        entries = {p.stem for p in (fitted / "out" / ".parsed").iterdir()}
        inputs = report["provenance"]["inputs"]
        assert entries == {inputs[f"exp{i:02d}"] for i in range(1, 6)}
        assert digest in entries and old not in entries
        cfg = load_run_config(cfg_path)
        fresh, _ = load_datasets(load_manifest(cfg.manifest), load_schema(cfg.schema))
        for got, expected in zip(_Run(cfg).ingested[0], fresh):
            assert got.data.tobytes() == expected.data.tobytes()

    def test_corrupt_file_leaves_no_entry(self, corpus, tmp_path):
        lines = (corpus / "exp01.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        (tmp_path / "exp01.csv").write_text("\n".join(lines) + "\n")
        cfg = one_experiment_config(corpus, tmp_path, "exp01.csv")
        assert main(["ingest", "--config", str(cfg)]) == 3
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        assert main(["cv", "--config", str(tmp_path / "nope.json")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_eval_mode_is_2(self, corpus, capsys):
        # Every prediction is a self-fed rollout; the key older configs
        # carried is refused, whatever its value.
        cfg_path = derived_config(corpus, "out_eval_mode", eval_mode="rollout")
        assert main(["cv", "--config", str(cfg_path)]) == 2
        assert "unknown config key 'eval_mode'" in capsys.readouterr().err
        assert not (corpus / "out_eval_mode").exists()

    @pytest.mark.parametrize("flag", [[], ["--seed", "-1"]], ids=["config", "override"])
    @pytest.mark.parametrize("command", [*cli.STAGES, "pipeline"])
    def test_negative_seed_is_2(self, corpus, command, flag, capsys):
        cfg_path = derived_config(corpus, "out_negative_seed", seed=0 if flag else -1)
        assert main([command, "--config", str(cfg_path), *flag]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (corpus / "out_negative_seed").exists()

    def test_negative_synth_seed_is_2(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("output_dir", ["plant.json", "plant.json/out"])
    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_output_dir_that_is_or_lies_under_a_file_is_2(
        self, corpus, tmp_path, command, output_dir, capsys
    ):
        root = shutil.copytree(corpus, tmp_path / "corpus", ignore=shutil.ignore_patterns("out*"))
        payload = json.loads((root / "config.json").read_text())
        payload["output_dir"] = output_dir
        (root / "config.json").write_text(json.dumps(payload))
        before = read_tree(root)
        assert main([command, "--config", str(root / "config.json")]) == 2
        assert "is a file" in capsys.readouterr().err
        assert read_tree(root) == before

    def test_synth_out_that_is_a_file_is_2(self, tmp_path, capsys):
        (tmp_path / "plant.json").write_text("{}")
        assert main(["synth", "--out", str(tmp_path / "plant.json")]) == 2
        assert "is a file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["plant.json"]

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_output_dir_name_too_long_is_2(self, corpus, command, capsys):
        payload = json.loads((corpus / "config.json").read_text())
        cfg_path = corpus / "config_long_name.json"
        cfg_path.write_text(json.dumps({**payload, "output_dir": "o" * 300}))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "File name too long" in capsys.readouterr().err

    def test_synth_out_name_too_long_is_2(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / ("o" * 300))]) == 2
        assert "File name too long" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_schema_listing_a_channel_twice_is_3(self, corpus, tmp_path, command, capsys):
        root = shutil.copytree(corpus, tmp_path / "corpus", ignore=shutil.ignore_patterns("out*"))
        schema = json.loads((root / "schema.json").read_text())
        power = next(c for c in schema["channels"] if c["name"] == "power_w")
        schema["channels"].append(power)
        (root / "schema.json").write_text(json.dumps(schema))
        assert main([command, "--config", str(root / "config.json")]) == 3
        assert "channel 'power_w' listed twice" in capsys.readouterr().err
        assert not (root / "out").exists()

    @pytest.mark.parametrize("key", ["channel", "gate_channel"])
    @pytest.mark.parametrize("command", ["impute", "pipeline"])
    def test_imputation_channel_not_in_schema_is_3(self, corpus, key, command, capsys):
        payload = json.loads((corpus / "config.json").read_text())
        directive = {**payload["imputation"][0], key: "working_distance"}
        cfg_path = derived_config(corpus, "out_misspelled", imputation=[directive])
        assert main([command, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "imputation channel 'working_distance' not in schema" in err
        assert not (corpus / "out_misspelled").exists()

    @staticmethod
    def _unrecorded(corpus, root: Path, name: str) -> Path:
        """A copy of ``corpus`` at ``root`` whose experiments hold no value of ``name``."""
        root = shutil.copytree(corpus, root, ignore=shutil.ignore_patterns("out*"))
        for path in root.glob("exp*.csv"):
            header, *rows = path.read_text().splitlines()
            j = header.split(",").index(name)
            fields = [row.split(",") for row in rows]
            for f in fields:
                f[j] = "nan"
            path.write_text("\n".join([header, *map(",".join, fields)]) + "\n")
        return root

    def test_imputation_channel_dropped_by_ingest_is_skipped(self, corpus, tmp_path):
        # A channel the schema lists but no experiment recorded is dropped
        # at ingest, and its directive then has nothing to impute.
        root = self._unrecorded(corpus, tmp_path / "corpus", "working_distance_mm")
        assert main(["impute", "--config", str(root / "config.json")]) == 0
        report = json.loads((root / "out" / "impute_report.json").read_text())
        assert report["channels"] == {}

    @pytest.mark.parametrize("observable", ["power_w", "working_distance_mm"])
    def test_spectrogram_observable_not_retained_is_3(self, corpus, tmp_path, observable, capsys):
        # An input, or an observable dropped at ingest as all-NaN: each is in
        # schema.json, so the message names the observables that are retained.
        root = self._unrecorded(corpus, tmp_path / "corpus", "working_distance_mm")
        payload = json.loads((root / "config.json").read_text())
        payload["spectrogram"]["observable"] = observable
        (root / "config.json").write_text(json.dumps(payload))
        assert main(["spectrogram", "--config", str(root / "config.json")]) == 3
        err = capsys.readouterr().err
        retained = ["melt_pool_size_mm", "melt_pool_temp_c"]
        assert f"spectrogram observable {observable!r} is not one of {retained}" in err

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
            ({"vif": {"accept_below": 10**400}}, "vif.accept_below"),
            ({"manifest": "manifest\x00.json"}, "manifest"),
            (
                {"imputation": [{"channel": "c", "sentinel": float("nan"), "gate_channel": "g"}]},
                "imputation[0].sentinel",
            ),
            ({"vif": {"accept_below": float("inf")}}, "vif.accept_below"),
            # The screen stops on accept_below alone; the threshold older
            # configs carried is refused rather than recorded.
            ({"vif": {"remove_above": 10.0, "accept_below": 5.0}}, "vif.remove_above"),
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
            "remove_above",
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

    def test_mixed_sample_rates_spectrogram_is_3(self, corpus, tmp_path, capsys):
        # Pulse spectra pool by sample count, which is one length only at one rate.
        fast = tmp_path / "fast"
        assert main(["synth", "--out", str(fast), "--experiments", "2", "--rate", "200"]) == 0
        entries = []
        for root, tag in ((corpus, "slow"), (fast, "fast")):
            for entry in json.loads((root / "manifest.json").read_text())["experiments"]:
                entry["experiment_id"] = f"{tag}_{entry['experiment_id']}"
                entry["path"] = str(root / entry["path"])
                entries.append(entry)
        (tmp_path / "manifest.json").write_text(json.dumps({"experiments": entries}))
        payload = json.loads((corpus / "config.json").read_text())
        payload.update(manifest="manifest.json", schema=str(corpus / "schema.json"))
        (tmp_path / "config.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["spectrogram", "--config", str(tmp_path / "config.json")]) == 3
        assert "'fast_exp01' sample rate differs from 'slow_exp01'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pipeline_refuses_too_few_experiments_before_writing(self, corpus):
        cfg_path = derived_config(corpus, "out_toofew_pipe", lpocv={"p": 6, "repeats": 2})
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert not (corpus / "out_toofew_pipe").exists()

    def test_pipeline_refuses_too_few_experiments_before_parsing(self, tmp_path, monkeypatch):
        # Experiments are counted in the manifest, so the refusal reads no CSV.
        assert main(["synth", "--out", str(tmp_path), "--experiments", "8", "--seed", "0"]) == 0
        cfg_path = derived_config(tmp_path, "out_all_tested", lpocv={"p": 8, "repeats": 2})
        parses, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1) or loadtxt(*a, **k))
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert len(parses) == 0
        assert not (tmp_path / "out_all_tested").exists()

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

    @pytest.mark.parametrize("channel", ["power_w", "melt_pool_temp_c"], ids=["input", "observable"])
    def test_infinite_field_stops_screening_with_4(self, corpus, tmp_path, channel, capfd):
        # Ingest takes an inf; screening reads every retained channel's
        # summaries, so it names the fault instead of handing LAPACK a NaN.
        lines = (corpus / "exp01.csv").read_text().splitlines()
        column = lines[0].split(",").index(channel)
        fields = lines[5].split(",")
        fields[column] = "inf"
        lines[5] = ",".join(fields)
        (tmp_path / "exp01.csv").write_text("\n".join(lines) + "\n")
        cfg = one_experiment_config(corpus, tmp_path, "exp01.csv")
        capfd.readouterr()
        assert main(["select-features", "--config", str(cfg)]) == 4
        out, err = capfd.readouterr()
        assert "numeric failure: NaN or infinity among" in err
        assert "DLASCL" not in out + err and "RuntimeWarning" not in err

    def test_one_row_experiment_stops_screening_with_3(self, corpus, tmp_path, capsys):
        lines = (corpus / "exp01.csv").read_text().splitlines()
        (tmp_path / "exp01.csv").write_text("\n".join(lines[:2]) + "\n")
        cfg = one_experiment_config(corpus, tmp_path, "exp01.csv")
        assert main(["select-features", "--config", str(cfg)]) == 3
        assert "experiment 'exp01' has 1 rows; at least 2 required" in capsys.readouterr().err

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
            ("manifest.json", one_entry(note="spare")),
            ("schema.json", {"channels": [{"name": "u", "unit": "au", "kind": "input", "gain": 2}]}),
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
            "unknown_entry_key",
            "unknown_channel_key",
        ],
    )
    def test_malformed_schema_or_manifest_is_3(self, corpus, tmp_path, name, payload, capsys):
        (tmp_path / "exp01.csv").write_text((corpus / "exp01.csv").read_text())
        cfg = one_experiment_config(corpus, tmp_path, "exp01.csv")
        (tmp_path / name).write_text(json.dumps(payload))
        assert main(["ingest", "--config", str(cfg)]) == 3
        assert f"data error: cannot read {tmp_path / name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report",
        [
            # The file's text. An envelope with no scores, as earlier versions
            # wrote one beside them, bounds nothing.
            '{"envelope": 3}',
            "{not json",
            "[]",
            '{"cv": {}}',
            '{"cv": 3}',
            '{"envelope": {"rmse": {}, "ci95": {}}}',
            '{"envelope": {"rmse": 3, "ci95": 4}}',
            json.dumps({"envelope": {"rmse": HALF_WIDTHS, "ci95": HALF_WIDTHS}, "cv": {}}),
            # An edit to the cv block that fit and cv wrote.
            pytest.param(
                lambda cv: cv["aggregates"]["rmse_test"].pop("melt_pool_temp_c"),
                id="rmse_test_lacks_an_observable",
            ),
            pytest.param(lambda cv: cv["aggregates"].pop("rmse_test"), id="no_rmse_test"),
            pytest.param(lambda cv: cv["aggregates"].update(rmse_test=3), id="rmse_test_number"),
            pytest.param(
                lambda cv: cv["aggregates"]["rmse_test"]["melt_pool_temp_c"].update(ci95=None),
                id="rmse_test_ci95_null",
            ),
        ],
    )
    def test_malformed_cv_report_is_3(self, fitted, report, capsys):
        path = fitted / "out" / "cv_report.json"
        written = json.loads(path.read_text())
        if callable(report):
            report(written["cv"])
            payload = written
        else:
            try:
                payload = json.loads(report)
            except ValueError:
                payload = None
            if isinstance(payload, dict):  # the run's provenance, so the scores are read
                payload = {"provenance": written["provenance"], **payload}
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else report)
        assert main(["predict", "--config", str(fitted / "config.json")]) == 3
        err = capsys.readouterr().err
        assert "cv_report.json" in err
        if isinstance(payload, dict):
            assert "no uncertainty envelope or scores" in err

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
            detail = f"model file version 1 not supported (expected {dmdc.MODEL_VERSION})"
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
        # A hand-edited model file: provenance intact, one observable renamed
        # in the names and the standardizer alike.
        path = fitted / "out" / "model.json"
        payload = json.loads(path.read_text())
        model = payload["model"]
        model["observable_names"][0] = "melt_pool_area_mm2"
        model["observable_standardizer"]["channels"][0] = "melt_pool_area_mm2"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([command, "--config", str(fitted / "config.json")]) == 3
        assert "model.json fits observables ['melt_pool_area_mm2'," in capsys.readouterr().err
        assert not (fitted / "out" / "predict_report.json").exists()
        assert not (fitted / "out" / "spectrogram.json").exists()

    @pytest.mark.parametrize("command", ["predict", "spectrogram"])
    def test_model_whose_standardizer_lacks_a_channel_is_3(self, fitted, command, capsys):
        # A hand-edited model file: provenance intact, the last input's
        # entries dropped from the input standardizer.
        path = fitted / "out" / "model.json"
        payload = json.loads(path.read_text())
        standardizer = payload["model"]["input_standardizer"]
        for values in standardizer.values():
            del values[-1]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([command, "--config", str(fitted / "config.json")]) == 3
        err = capsys.readouterr().err
        assert "model.json" in err and "standardizer of channels" in err
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
        "output_dir": mostly(st.sampled_from(["out_property", "plant.json", "plant.json/out"])),
    },
    optional={
        "seed": mostly(INTS),
        "lpocv": section(p=INTS, repeats=INTS),
        "vif": section(accept_below=FLOATS),
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
        "predict_experiment": mostly(st.none() | TEXT),
        "position_channels": mostly(st.lists(TEXT, max_size=3)),
    },
)


class TestConfigSchema:
    @settings(max_examples=300)
    @given(payload=CONFIG_PAYLOADS)
    def test_any_payload_loads_or_raises_a_named_error(self, corpus, payload):
        # A payload that loads also draws its splits, into a directory that
        # can be made, or stops at a named error.
        path = corpus / "config_property.json"
        path.write_text(json.dumps(payload))
        try:
            cfg = load_run_config(path)
            draw_splits(8, cfg.lpocv.p, min(cfg.lpocv.repeats, 3), cfg.seed)
        except (ConfigError, DataError):
            return
        assert isinstance(cfg, RunConfig)
        assert not any(p.is_file() for p in (cfg.output_dir, *cfg.output_dir.parents))


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

    def test_freq_study_after_pipeline_skips_spectral_and_vif(self, fitted):
        # cv's report gives the study its fit settings, so no screening runs,
        # no spectrogram is made and no split shift is measured: none of
        # those stages' modules loads.
        cfg_path = str(fitted / "config.json")
        assert main(["pipeline", "--config", cfg_path]) == 0
        code = (
            "import sys; from dedsid.cli import main; "
            f"code = main(['freq-study', '--config', {cfg_path!r}]); "
            "print(code, sorted(m for m in ('dedsid.spectral', 'dedsid.vif', 'dedsid.wasserstein') "
            "if m in sys.modules))"
        )
        assert self.child_lines(code)[-1] == "0 []"

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

    def test_lapack_lite_is_not_deprecated(self):
        # dmdc factors its QR blocks with numpy.linalg.lapack_lite.dgeqrf; a
        # numpy that deprecates the module fails here instead of warning.
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import dedsid.dmdc, numpy.linalg.lapack_lite"],
            capture_output=True, text=True, env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_package_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            dedsid.nope  # noqa: B018


class TestReadme:
    def test_library_example_runs(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert namespace["report"].repeats == 10
        assert [f.test_ids for f in namespace["report"].folds] == [
            tuple(f"exp{i + 1:02d}" for i in np.flatnonzero(test)) for test in namespace["splits"]
        ]
        assert all(len(r.distances) == 10 for r in namespace["shift"])

    def test_config_example_loads(self, tmp_path):
        # The example spells out every key synth writes, and none that the
        # loader refuses.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("\n## Configuration\n", 1)[1].split("```jsonc\n", 1)[1]
        payload = json.loads(re.sub(r"\s*//.*", "", block.split("```", 1)[0]))
        assert isinstance(from_plain(RunConfig, payload, tmp_path), RunConfig)

        def keys(value, prefix=""):
            if not isinstance(value, dict):
                return {prefix}
            return {k for name, v in value.items() for k in keys(v, f"{prefix}.{name}")}

        assert keys(payload) == keys(default_config_payload("m.json", "s.json", "out", 0))

    def test_cli_table_lists_every_subcommand(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(documented) == sorted(sub.choices)
