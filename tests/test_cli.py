import json
from pathlib import Path

import numpy as np
import pytest

from dedsid.cli import main
from dedsid.config import load_run_config
from dedsid.dataset import load_datasets, load_manifest, load_schema
from dedsid.dmdc import load_model


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

    def test_too_few_experiments_is_2(self, corpus):
        cfg_path = derived_config(corpus, "out_toofew", lpocv={"p": 6, "repeats": 2})
        assert main(["cv", "--config", str(cfg_path)]) == 2

    def test_missing_experiment_file_is_3(self, corpus, tmp_path, capsys):
        manifest = {
            "experiments": [
                {"experiment_id": "ghost", "path": "ghost.csv", "sample_rate_hz": 100.0}
            ]
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "schema.json").write_text((corpus / "schema.json").read_text())
        payload = json.loads((corpus / "config.json").read_text())
        payload["manifest"] = str(tmp_path / "manifest.json")
        payload["schema"] = str(tmp_path / "schema.json")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        assert main(["ingest", "--config", str(cfg)]) == 3
        assert "data error" in capsys.readouterr().err

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
