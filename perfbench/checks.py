"""Correctness checks on one round's outputs.

Every check compares an output with a property of the method or with a value
computed here, apart from dedsid (numpy, scipy and the corpus files as
written); none compares with a stored copy of earlier output. Each function
returns a list of failure messages, empty when the outputs are correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.stats import wasserstein_distance

# A rollout's test RMSE sits on the plant's observation noise; imputed
# dropout and the fitted operator's error lift it above, by far less than this.
NOISE_FLOOR_MULTIPLE = 2.5
MIN_SPECTRAL_SIMILARITY = 0.9
OPERATOR_TOL = 1e-6
TRAJECTORY_TOL = 1e-6


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and rows of a dedsid CSV artifact (after its provenance line)."""
    lines = path.read_text().splitlines()
    if lines[0].startswith("#"):
        lines = lines[1:]
    return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


class Corpus:
    """The corpus as written by ``dedsid synth``, read with numpy alone."""

    def __init__(self, root: Path):
        self.config = _json(root / "config.json")
        self.plant = _json(root / "plant.json")
        manifest = _json(root / self.config["manifest"])
        self.ids = [e["experiment_id"] for e in manifest["experiments"]]
        self.columns: dict[str, dict[str, np.ndarray]] = {}
        for entry in manifest["experiments"]:
            header, rows = _table(root / entry["path"])
            self.columns[entry["experiment_id"]] = dict(zip(header, rows.T))
        self.inputs = [c["name"] for c in self.plant["input_channels"]]
        self.observables = [c["name"] for c in self.plant["observable_channels"]]
        for d in self.config["imputation"]:
            for cols in self.columns.values():
                cols[d["channel"]] = _bridge(
                    cols[d["channel"]], cols[d["gate_channel"]] > 0, d["sentinel"]
                )

    def pooled(self, names, ids=None) -> np.ndarray:
        ids = self.ids if ids is None else ids
        return np.concatenate(
            [np.column_stack([self.columns[i][n] for n in names]) for i in ids]
        )


def _bridge(x: np.ndarray, gate: np.ndarray, sentinel: float) -> np.ndarray:
    """Sentinels under a live gate, interpolated between valid neighbours."""
    valid = x != sentinel
    fix = ~valid & gate
    if not fix.any() or not valid.any():
        return x
    x = x.copy()
    x[fix] = np.interp(np.flatnonzero(fix), np.flatnonzero(valid), x[valid])
    return x


def check_screening(corpus: Corpus, out: Path) -> list[str]:
    report = _json(out / "vif_report.json")
    fails = []
    pooled = corpus.pooled(corpus.inputs)
    constant = [n for j, n in enumerate(corpus.inputs) if np.all(pooled[:, j] == pooled[0, j])]
    if sorted(report["constant_channels_excluded"]) != sorted(constant):
        fails.append(f"constant channels {report['constant_channels_excluded']} != {constant}")
    survivors = report["surviving_features"]
    if set(constant) & set(survivors):
        fails.append(f"constant channel among survivors {survivors}")
    b = np.asarray(corpus.plant["B"])
    driven = {n for j, n in enumerate(corpus.inputs) if np.any(b[:, j])}
    if driven - set(survivors):
        fails.append(f"driven inputs {sorted(driven - set(survivors))} screened out")

    z = corpus.pooled(survivors)
    z = (z - z.mean(axis=0)) / z.std(axis=0)
    expected = np.diag(np.linalg.inv(z.T @ z / len(z)))
    for name, vif in zip(survivors, expected):
        got = float(report["final_vif"][name])
        if not np.isclose(got, vif, rtol=1e-6):
            fails.append(f"VIF of {name}: report {got}, inverse correlation {vif}")
        if not got < report["accept_below"]:
            fails.append(f"VIF of {name} = {got} not below {report['accept_below']}")
    return fails


def check_shift(corpus: Corpus, out: Path) -> list[str]:
    # dist-report and cv draw their splits from the same seed; the folds
    # name each split's test experiments.
    folds = _json(out / "cv_report.json")["cv"]["folds"]
    fails = []
    for result in _json(out / "dist_report.json")["results"]:
        if result["pair_label"] != "test_to_train":
            continue
        ch = result["channel"]
        if len(result["distances"]) != len(folds):
            fails.append(f"{ch}: {len(result['distances'])} distances for {len(folds)} splits")
            continue
        for fold, got in zip(folds, result["distances"]):
            test = fold["test_ids"]
            train = [i for i in corpus.ids if i not in test]
            ref = wasserstein_distance(
                corpus.pooled([ch], test).ravel(), corpus.pooled([ch], train).ravel()
            )
            if not np.isclose(got, ref, rtol=1e-9, atol=1e-12):
                fails.append(f"W1 {ch} test {test}: report {got}, scipy {ref}")
    return fails


def check_noise_floor(corpus: Corpus, out: Path) -> list[str]:
    rmse = _json(out / "cv_report.json")["cv"]["aggregates"]["rmse_test"]
    fails = []
    for obs, sd in zip(corpus.observables, corpus.plant["noise_sd"]):
        got = rmse[obs]["mean"]
        if not sd <= got <= NOISE_FLOOR_MULTIPLE * sd:
            fails.append(f"CV test RMSE of {obs} = {got:.6g} outside [{sd}, "
                         f"{NOISE_FLOOR_MULTIPLE} x {sd}]")
    return fails


def check_bounds(corpus: Corpus, out: Path) -> list[str]:
    header, rows = _table(out / "bounded_predictions.csv")
    col = {name: rows[:, j] for j, name in enumerate(header)}
    fails = []
    for obs in corpus.observables:
        pred, lo, hi = col[f"{obs}_pred"], col[f"{obs}_lower"], col[f"{obs}_upper"]
        measured, flag = col[f"{obs}_measured"], col[f"{obs}_violation"]
        if not (np.all(lo <= pred) and np.all(pred <= hi)):
            fails.append(f"{obs}: prediction outside its own bounds")
        expected = ((measured < lo) | (measured > hi)).astype(float)
        if not np.array_equal(flag, expected):
            fails.append(f"{obs}: {int(np.sum(flag != expected))} violation flags disagree")
    return fails


def check_spectra(out: Path) -> list[str]:
    fails = []
    for name in ("spectrogram.csv", "spectrogram_model.csv"):
        _, rows = _table(out / name)
        peak = rows[:, 2].max()
        if not np.isclose(peak, 1.0, rtol=0, atol=1e-12):
            fails.append(f"{name}: peak intensity {peak}")
    similarity = _json(out / "spectrogram.json")["model_similarity"]
    if not MIN_SPECTRAL_SIMILARITY < similarity <= 1.0 + 1e-12:
        fails.append(f"spectrogram similarity {similarity}")
    return fails


def check_rate_study(corpus: Corpus, out: Path) -> list[str]:
    rows = sorted(_json(out / "freq_study.json")["rows"], key=lambda r: r["factor"])
    first, last = rows[0], rows[-1]
    return [
        f"{obs}: test R2 {first['r2_test'][obs]['mean']:.4f} at factor {first['factor']} "
        f"<= {last['r2_test'][obs]['mean']:.4f} at factor {last['factor']}"
        for obs in corpus.observables
        if not first["r2_test"][obs]["mean"] > last["r2_test"][obs]["mean"]
    ]


def check_corpus_round(corpus_dir: Path, out: Path, rate_study: bool) -> list[str]:
    """Every check on the artifacts of a pipeline (and freq-study) round."""
    corpus = Corpus(corpus_dir)
    fails = (
        check_screening(corpus, out)
        + check_shift(corpus, out)
        + check_noise_floor(corpus, out)
        + check_bounds(corpus, out)
        + check_spectra(out)
    )
    if rate_study:
        fails += check_rate_study(corpus, out)
    return fails


def check_stream(result: dict) -> list[str]:
    """The stream operation recovers the plant and reproduces its trajectory."""
    fails = []
    if not result["operator_max_err"] <= OPERATOR_TOL:
        fails.append(f"fitted A, B differ from the plant's by {result['operator_max_err']}")
    if not result["rollout_max_rel_err"] <= TRAJECTORY_TOL:
        fails.append(f"rollout differs from the noiseless trajectory by "
                     f"{result['rollout_max_rel_err']} (relative)")
    return fails
