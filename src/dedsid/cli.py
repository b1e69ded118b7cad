"""Command-line interface.

Every subcommand takes --config (a JSON run configuration) except synth,
which creates one. Artifacts land in the configured output directory and
carry the config hash, the seed and the sha256 of each input file, so equal
(config, seed, inputs) produce byte-identical numeric outputs. Each stage is
defined once in ``STAGES``, shared by its subcommand and ``pipeline``. Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import dataset as dsmod
from .artifacts import read_json_object, to_plain, write_json, write_rows
from .config import (
    FitConfig,
    ImputationDirective,
    RunConfig,
    default_config_payload,
    load_run_config,
)
from .dataset import TimeSeriesDataset, load_datasets, load_manifest, load_schema
from .dmdc import SnapshotSet, StateSpaceModel, build_snapshots, fit, load_model, save_model
from .errors import (
    ConfigError,
    CorruptFile,
    DataError,
    NumericError,
    StaleArtifact,
    TooFewExperiments,
)
from .spectral import build_spectrogram, collect_pulse_spectra, compare_spectrograms
from .validation import (
    UncertaintyEnvelope,
    bound_predictions,
    draw_splits,
    frequency_study,
    predict_series,
    run_lpocv,
)
from .vif import select_features
from .wasserstein import split_shift_report


def _write_table(
    run: _Run, name: str, header: Sequence[str], rows: np.ndarray, fmt: str = "%.17g"
) -> None:
    """The CSV artifact ``name``: one comment line with the run's provenance
    (the input digests as compact JSON), the header row, then ``rows`` in ``fmt``."""
    provenance = run.provenance
    inputs = json.dumps(provenance["inputs"], separators=(",", ":"))
    run.out.mkdir(parents=True, exist_ok=True)
    with open(run.out / name, "w", newline="") as fh:
        fh.write(
            f"# config_sha256={provenance['config_sha256']} seed={provenance['seed']} "
            f"inputs={inputs}\n"
        )
        fh.write(",".join(header) + "\n")
        write_rows(fh, rows, fmt)


def _write_corpus(datasets: Sequence[TimeSeriesDataset], schema, root: Path) -> None:
    """Each dataset as ``<experiment_id>.csv`` under ``root``, with a manifest and schema."""
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for ds in datasets:
        name = f"{ds.experiment_id}.csv"
        dsmod.write_csv(ds, root / name)
        entries.append(
            dsmod.ManifestEntry(
                experiment_id=ds.experiment_id, path=name, sample_rate_hz=ds.sample_rate_hz
            )
        )
    dsmod.save_manifest(dsmod.ExperimentManifest(tuple(entries), root=root), root / "manifest.json")
    dsmod.save_schema(schema, root / "schema.json")


class _Run:
    """One configured run: each input the stages share is computed at most once."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = cfg.output_dir

    @cached_property
    def manifest(self) -> dsmod.ExperimentManifest:
        return load_manifest(self.cfg.manifest)

    @cached_property
    def provenance(self) -> dict:
        """What each JSON artifact carries and each stage checks upstream ones
        against: the config hash, the seed and the sha256 of every input file."""
        paths = {"schema": self.cfg.schema, "manifest": self.cfg.manifest}
        for entry in self.manifest.entries:
            if entry.experiment_id in paths:
                raise DataError(f"experiment id {entry.experiment_id!r} is reserved")
            paths[entry.experiment_id] = self.manifest.resolved_path(entry)
        try:
            inputs = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}
        except OSError as exc:
            raise CorruptFile(str(exc.filename), exc.strerror) from None
        return {**self.cfg.provenance(), "inputs": inputs}

    @cached_property
    def ingested(self) -> tuple[list[TimeSeriesDataset], dict]:
        """The datasets as read and the ingest report, whose retained schema they share."""
        schema = load_schema(self.cfg.schema)
        datasets, reports = load_datasets(self.manifest, schema)
        # A channel that failed ingestion anywhere is dropped everywhere so
        # experiments keep a common schema.
        dropped = sorted({name for r in reports for name in r.excluded_all_nan})
        if dropped:
            schema = tuple(c for c in schema if c.name not in dropped)
            datasets = [ds.select_channels([c.name for c in schema]) for ds in datasets]
        report = {"experiments": reports, "dropped_channels": dropped, "retained_schema": schema}
        return datasets, report

    def names(self, kind: str) -> list[str]:
        return [c.name for c in self.ingested[1]["retained_schema"] if c.kind == kind]

    @cached_property
    def imputed(self) -> tuple[list[TimeSeriesDataset], dict]:
        """The datasets with every imputation directive applied, and sentinel counts."""
        counts = {}
        datasets = []
        for ds in self.ingested[0]:
            for directive in self.cfg.imputation:
                if directive.channel not in ds.channel_names:
                    continue
                before = int(np.sum(ds.column(directive.channel) == directive.sentinel))
                ds = dsmod.impute_off_state(
                    ds, directive.channel, directive.sentinel, directive.gate_channel
                )
                after = int(np.sum(ds.column(directive.channel) == directive.sentinel))
                key = f"{ds.experiment_id}/{directive.channel}"
                counts[key] = {"sentinels_before": before, "sentinels_after": after}
            datasets.append(ds)
        return datasets, counts

    @property
    def datasets(self) -> list[TimeSeriesDataset]:
        return self.imputed[0]

    @cached_property
    def screening(self) -> dict:
        """The VIF report: zero-variance prefilter, then collinearity
        elimination on the pooled inputs."""
        names = self.names("input")
        pooled = np.concatenate([ds.matrix_for(names) for ds in self.datasets], axis=0)
        constant = dsmod.zero_variance_channels(pooled, names)
        keep = [j for j, n in enumerate(names) if n not in constant]
        candidates = [names[j] for j in keep]
        pooled = pooled[:, keep]
        params = dsmod.standardizer_from_matrix(pooled, candidates)
        report = select_features(
            params.transform_matrix(pooled),
            candidates,
            remove_above=self.cfg.vif.remove_above,
            accept_below=self.cfg.vif.accept_below,
        )
        return {"constant_channels_excluded": constant, **to_plain(report)}

    @cached_property
    def fit_config(self) -> FitConfig:
        return FitConfig(
            inputs=tuple(self.screening["surviving_features"]),
            observables=tuple(self.names("observable")),
            standardize_inputs=self.cfg.standardize_inputs,
            standardize_observables=self.cfg.standardize_observables,
            svd_rank=self.cfg.svd_rank,
            eval_mode=self.cfg.eval_mode,
        )

    @cached_property
    def snapshots(self) -> SnapshotSet:
        """One pass over every experiment's rows, shared by cv's folds and the fit."""
        return build_snapshots(self.datasets, self.fit_config.inputs, self.fit_config.observables)


def _upstream(run: _Run, name: str, stage: str) -> Path:
    """``name`` in the output directory, which the ``stage`` stage writes."""
    path = run.out / name
    if not path.exists():
        raise DataError(f"{path} not found; run the {stage} stage first")
    return path


def _ingest(run: _Run) -> str:
    datasets, report = run.ingested
    write_json(run.out / "ingest_report.json", report, run.provenance)
    return f"ingested {len(datasets)} experiments"


def _impute(run: _Run) -> str:
    counts = run.imputed[1]
    write_json(run.out / "impute_report.json", {"channels": counts}, run.provenance)
    filled = sum(c["sentinels_before"] - c["sentinels_after"] for c in counts.values())
    return f"imputed {filled} sentinel samples"


def _select_features(run: _Run) -> str:
    write_json(run.out / "vif_report.json", run.screening, run.provenance)
    survivors = len(run.fit_config.inputs)
    return f"{survivors} of {len(run.names('input'))} input features survive"


def _dist_report(run: _Run) -> str:
    cfg = run.cfg
    by_id = {ds.experiment_id: ds for ds in run.datasets}
    id_splits = draw_splits(list(by_id), cfg.lpocv.p, cfg.lpocv.repeats, cfg.seed)
    results = split_shift_report(
        [([by_id[i] for i in tr], [by_id[i] for i in te]) for tr, te in id_splits],
        run.names("observable"),
    )
    write_json(run.out / "dist_report.json", {"results": results}, run.provenance)
    table = [
        (r.channel, r.pair_label, r.mean_distance, r.ci95_halfwidth, r.repeats) for r in results
    ]
    header = "channel,pair,mean_distance,ci95_halfwidth,repeats".split(",")
    fmt = "%s,%s,%.17g,%.17g,%d"
    _write_table(run, "dist_report.csv", header, np.array(table, dtype=object), fmt)
    return f"wrote {len(results)} distance summaries"


def _cv(run: _Run) -> str:
    cfg = run.cfg
    report, envelope = run_lpocv(
        run.datasets,
        run.fit_config,
        p=cfg.lpocv.p,
        repeats=cfg.lpocv.repeats,
        seed=cfg.seed,
        snapshots=run.snapshots,
    )
    payload = {"cv": report, "envelope": envelope}
    write_json(run.out / "cv_report.json", payload, run.provenance)
    r2 = report.aggregates["r2_test"]
    return "\n".join(
        f"{obs}: test R^2 {r2[obs].mean:.4f} +/- {r2[obs].ci95:.4f}" for obs in report.observables
    )


def _fit(run: _Run) -> str:
    cfg = run.fit_config
    model = fit(run.snapshots, cfg.svd_rank, cfg.standardize_inputs, cfg.standardize_observables)
    save_model(model, run.out / "model.json", run.provenance)
    return (
        f"fit model: {model.state_dim} observables, {model.input_dim} inputs, "
        f"svd rank {model.svd_rank_used}"
    )


def _load_envelope(run: _Run, observables: Sequence[str]) -> UncertaintyEnvelope:
    path = _upstream(run, "cv_report.json", "cv")
    payload = read_json_object(path, run.provenance)
    try:
        envelope = UncertaintyEnvelope(**payload["envelope"])
        for name in observables:  # every bound needs a numeric half-width
            float(envelope.half_width(name))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(str(path), f"no uncertainty envelope: {exc!r}") from None
    return envelope


def _load_model(run: _Run) -> StateSpaceModel:
    """``model.json``, written under this run's provenance and for its observables."""
    path = _upstream(run, "model.json", "fit")
    model = load_model(path, run.provenance)
    observables = tuple(run.names("observable"))
    if model.observable_names != observables:
        raise StaleArtifact(
            str(path), f"fits observables {list(model.observable_names)}, not {list(observables)}"
        )
    return model


def _predict(run: _Run) -> str:
    cfg = run.cfg
    model = _load_model(run)
    names = model.observable_names
    envelope = _load_envelope(run, names)
    by_id = {ds.experiment_id: ds for ds in run.datasets}
    exp_id = cfg.predict_experiment or run.datasets[0].experiment_id
    if exp_id not in by_id:
        raise DataError(f"experiment {exp_id!r} not in manifest")
    ds = by_id[exp_id]
    predictions, lower, upper, measured, violated = bound_predictions(
        model, envelope, ds, cfg.eval_mode
    )

    t = np.arange(1, ds.row_count)
    kinds = ("pred", "lower", "upper", "measured", "violation")
    header = ["t"] + [f"{name}_{kind}" for name in names for kind in kinds]
    per_name = np.stack([predictions, lower, upper, measured, violated], 2)
    rows = np.column_stack([t, per_name.reshape(t.size, -1)])
    _write_table(run, "bounded_predictions.csv", header, rows)

    positions = list(cfg.position_channels)
    geometry_written = all(c in ds.channel_names for c in positions)
    if geometry_written:
        header = ["t"] + positions + [f"{name}_pred" for name in names]
        rows = np.column_stack([t, ds.matrix_for(positions)[1:], predictions])
        _write_table(run, "geometry.csv", header, rows)

    counts = violated.sum(axis=0)
    total = violated.size
    within = 1.0 - int(counts.sum()) / total if total else 1.0
    summary = {
        "experiment_id": exp_id,
        "steps": int(t.size),
        "violations": {name: int(c) for name, c in zip(names, counts)},
        "within_bounds_fraction": within,
        "geometry_written": geometry_written,
    }
    write_json(run.out / "predict_report.json", summary, run.provenance)
    return f"bounded predictions for {exp_id}: {within:.3f} within bounds"


def _spectrogram(run: _Run) -> str:
    cfg = run.cfg
    sg_cfg = cfg.spectrogram
    observables = run.names("observable")
    observable = sg_cfg.observable or observables[0]
    if observable not in observables:
        raise DataError(f"spectrogram observable {observable!r} not in schema")
    model = _load_model(run) if (run.out / "model.json").exists() else None
    grid = (sg_cfg.rows, sg_cfg.cols)
    measured = collect_pulse_spectra(
        run.datasets, sg_cfg.power_channel, [ds.column(observable) for ds in run.datasets]
    )
    sg = build_spectrogram(measured, grid=grid, cap_hz=sg_cfg.cap_hz)
    header = ["pulse_length_s", "frequency_hz", "intensity"]
    _write_table(run, "spectrogram.csv", header, sg.to_csv_rows())
    summary = {
        "observable": observable,
        "grid": list(grid),
        "nyquist_hz": sg.nyquist_hz,
        "display_cap_hz": sg.display_cap_hz,
        "pulse_length_range_s": [float(v) for v in sg.pulse_length_axis_s[[0, -1]]],
    }
    if model is not None:
        column = list(model.observable_names).index(observable)
        predicted = predict_series(model, run.datasets, cfg.eval_mode)
        spectra = collect_pulse_spectra(
            run.datasets, sg_cfg.power_channel, [p[:, column] for p in predicted]
        )
        sg_model = build_spectrogram(spectra, grid=grid, cap_hz=sg_cfg.cap_hz)
        _write_table(run, "spectrogram_model.csv", header, sg_model.to_csv_rows())
        summary["model_similarity"] = compare_spectrograms(sg, sg_model)
    write_json(run.out / "spectrogram.json", summary, run.provenance)
    if model is None:
        return "wrote measured spectrogram (no model file present)"
    return f"spectrogram similarity (measured vs model): {summary['model_similarity']:.4f}"


def _freq_study(run: _Run) -> str:
    cfg = run.cfg
    rows = frequency_study(
        run.datasets,
        run.fit_config,
        factors=cfg.decimation_factors,
        p=cfg.lpocv.p,
        repeats=cfg.lpocv.repeats,
        seed=cfg.seed,
    )
    write_json(run.out / "freq_study.json", {"rows": rows}, run.provenance)
    table = []
    for row in rows:
        for obs in run.names("observable"):
            r2, rmse = row.r2_test[obs], row.rmse_test[obs]
            table.append(
                (row.factor, row.sample_rate_hz, obs, r2.mean, r2.ci95, rmse.mean, rmse.ci95)
            )
    header = "factor,sample_rate_hz,observable,r2_mean,r2_ci95,rmse_mean,rmse_ci95".split(",")
    fmt = "%d,%.17g,%s,%.17g,%.17g,%.17g,%.17g"
    _write_table(run, "freq_study.csv", header, np.array(table, dtype=object), fmt)
    return f"frequency study over factors {list(cfg.decimation_factors)} complete"


# Each stage: its help text and the function that writes its artifacts and
# returns its console line.
STAGES: dict[str, tuple[str, Callable[[_Run], str]]] = {
    "ingest": ("validate and report on the experiment files", _ingest),
    "impute": ("bridge gated sentinel runs and count them", _impute),
    "select-features": ("collinearity screening of inputs", _select_features),
    "dist-report": ("train/test distribution-shift distances", _dist_report),
    "cv": ("leave-p-out cross-validation", _cv),
    "fit": ("fit a surrogate on all experiments", _fit),
    "predict": ("bounded rollout for one experiment", _predict),
    "spectrogram": ("pulse-length spectrogram artifacts", _spectrogram),
    "freq-study": ("accuracy versus recording rate", _freq_study),
}
PIPELINE = (
    "ingest", "impute", "select-features", "dist-report", "cv", "fit", "predict", "spectrogram"
)


def cmd_stage(args) -> int:
    run = _Run(load_run_config(args.config, args.seed))
    print(STAGES[args.command][1](run))
    return 0


def cmd_pipeline(args) -> int:
    run = _Run(load_run_config(args.config, args.seed))
    available, p = len(run.ingested[0]), run.cfg.lpocv.p
    if available <= p:  # draw_splits would refuse too, but only after files are written
        raise TooFewExperiments(available, p)
    for name in PIPELINE:
        STAGES[name][1](run)
    cv = read_json_object(run.out / "cv_report.json", run.provenance)["cv"]
    r2 = cv["aggregates"]["r2_test"]
    write_json(
        run.out / "pipeline_report.json",
        {
            "stages": PIPELINE,
            "experiments": sorted(ds.experiment_id for ds in run.datasets),
            "surviving_inputs": run.fit_config.inputs,
            "test_r2": {obs: r2[obs]["mean"] for obs in cv["observables"]},
        },
        run.provenance,
    )
    print(f"pipeline complete: {', '.join(PIPELINE)}")
    return 0


def _given(**options) -> dict:
    """The options a command line set; the others keep the library's defaults."""
    return {name: value for name, value in options.items() if value is not None}


def cmd_synth(args) -> int:
    from .plant import make_demo_experiments, save_plant

    if args.experiments < 1:
        raise ConfigError(f"--experiments must be at least 1, got {args.experiments}")
    if args.rate is not None and not 0 < args.rate < np.inf:
        raise ConfigError(f"--rate must be a finite number of Hz above 0, got {args.rate}")
    if args.dropout is not None and not 0 <= args.dropout <= 1:
        raise ConfigError(f"--dropout must lie in [0, 1], got {args.dropout}")
    out = Path(args.out)
    spec, datasets = make_demo_experiments(
        args.experiments,
        args.seed,
        **_given(sample_rate_hz=args.rate, dropout_probability=args.dropout),
    )
    save_plant(spec, out / "plant.json")
    _write_corpus(datasets, datasets[0].channels, out)
    imputation = []
    if spec.dropout is not None:
        imputation.append(
            ImputationDirective(
                channel=spec.dropout.channel,
                sentinel=spec.dropout.sentinel,
                gate_channel=spec.dropout.gate_channel,
            )
        )
    payload = default_config_payload(
        manifest="manifest.json",
        schema="schema.json",
        output_dir="out",
        seed=args.seed,
        imputation=imputation,
        predict_experiment=datasets[0].experiment_id,
        spectrogram_observable=spec.observable_names[0],
    )
    write_json(out / "config.json", payload)
    print(f"wrote {len(datasets)} experiments, manifest, schema, config under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dedsid",
        description="State-space surrogate modeling for deposition process time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic experiment corpus")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--experiments", type=int, default=7)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--rate", type=float, help="sample rate in Hz")
    synth.add_argument("--dropout", type=float, help="sensor dropout probability")
    synth.set_defaults(func=cmd_synth)

    def with_config(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=func)
        return p

    for name, (help_text, _) in STAGES.items():
        with_config(name, help_text, cmd_stage)
    with_config("pipeline", f"run {', '.join(PIPELINE)} in order", cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
