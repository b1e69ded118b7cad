"""Command-line interface.

Every subcommand takes --config (a JSON run configuration) except synth,
which creates one. Artifacts land in the configured output directory and
carry the config hash and seed, so identical (config, seed) pairs produce
byte-identical numeric outputs. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataset as dsmod
from .artifacts import read_json_object, to_plain, write_json
from .bench import throughput_benchmark
from .config import (
    BenchConfig,
    ImputationDirective,
    RunConfig,
    default_config_payload,
    load_run_config,
)
from .dataset import load_datasets, load_manifest, load_schema
from .dmdc import load_model, save_model
from .errors import ConfigError, CorruptFile, DataError, NumericError, TooFewExperiments
from .plant import make_demo_experiments, save_plant
from .spectral import build_spectrogram, collect_pulse_spectra, compare_spectrograms
from .validation import (
    FitConfig,
    UncertaintyEnvelope,
    bound_predictions,
    draw_splits,
    fit_on_datasets,
    frequency_study,
    predict_series,
    run_lpocv,
)
from .vif import select_features
from .wasserstein import split_shift_report


@contextmanager
def _csv_artifact(path: Path, header: str, cfg: RunConfig):
    """Open a CSV artifact with its provenance comment and header row written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256={cfg.config_sha256} seed={cfg.seed}\n")
        fh.write(header + "\n")
        yield fh


def _write_table(path: Path, header: Sequence[str], rows: np.ndarray, cfg: RunConfig) -> None:
    with _csv_artifact(path, ",".join(header), cfg) as fh:
        np.savetxt(fh, np.atleast_2d(rows), delimiter=",", fmt="%.17g")


class _World:
    """Everything a stage needs: schema partition plus ingested datasets."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.schema = load_schema(cfg.schema)
        manifest = load_manifest(cfg.manifest)
        datasets, reports = load_datasets(manifest, self.schema)
        self.ingest_reports = reports
        # A channel that failed ingestion anywhere is dropped everywhere so
        # experiments keep a common schema.
        dropped = set()
        for r in reports:
            dropped.update(r.excluded_all_nan)
        if dropped:
            keep = [c.name for c in self.schema if c.name not in dropped]
            datasets = [ds.select_channels(keep) for ds in datasets]
            self.schema = tuple(c for c in self.schema if c.name not in dropped)
        self.datasets = datasets
        self.dropped_channels = sorted(dropped)

    @property
    def input_names(self) -> list[str]:
        return [c.name for c in self.schema if c.kind == "input"]

    @property
    def observable_names(self) -> list[str]:
        return [c.name for c in self.schema if c.kind == "observable"]

    def apply_imputation(self) -> dict:
        counts = {}
        out = []
        for ds in self.datasets:
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
            out.append(ds)
        self.datasets = out
        return counts

    def select_inputs(self):
        """Zero-variance prefilter then collinearity elimination on pooled inputs."""
        names = self.input_names
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
        return report, list(report.surviving_features), constant

    def fit_config(self, inputs: Sequence[str]) -> FitConfig:
        return FitConfig(
            inputs=tuple(inputs),
            observables=tuple(self.observable_names),
            standardize_inputs=self.cfg.standardize_inputs,
            standardize_observables=self.cfg.standardize_observables,
            svd_rank=self.cfg.svd_rank,
            eval_mode=self.cfg.eval_mode,
        )

    def check_split_size(self) -> None:
        if len(self.datasets) <= self.cfg.lpocv.p:
            raise TooFewExperiments(len(self.datasets), self.cfg.lpocv.p)


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec, datasets = make_demo_experiments(
        n_experiments=args.experiments,
        seed=args.seed,
        sample_rate_hz=args.rate,
        dropout_probability=args.dropout,
    )
    save_plant(spec, out / "plant.json")
    entries = []
    for ds in datasets:
        name = f"{ds.experiment_id}.csv"
        dsmod.write_csv(ds, out / name)
        entries.append(
            dsmod.ManifestEntry(
                experiment_id=ds.experiment_id, path=name, sample_rate_hz=ds.sample_rate_hz
            )
        )
    dsmod.save_manifest(dsmod.ExperimentManifest(tuple(entries), root=out), out / "manifest.json")
    dsmod.save_schema(datasets[0].channels, out / "schema.json")
    imputation = []
    if spec.dropout is not None:
        imputation.append(
            ImputationDirective(
                channel=spec.dropout.channel,
                sentinel=spec.dropout.sentinel,
                gate_channel=spec.dropout.gate_channel or "power_w",
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


def _ingest_stage(world: _World) -> None:
    write_json(
        world.cfg.output_dir / "ingest_report.json",
        {
            "experiments": world.ingest_reports,
            "dropped_channels": world.dropped_channels,
            "retained_schema": world.schema,
        },
        world.cfg,
    )


def cmd_ingest(args) -> int:
    world = _World(load_run_config(args.config, args.seed))
    _ingest_stage(world)
    print(f"ingested {len(world.datasets)} experiments")
    return 0


def _vif_stage(world: _World) -> tuple[dict, list[str]]:
    report, survivors, constant = world.select_inputs()
    return {"constant_channels_excluded": constant, **to_plain(report)}, survivors


def cmd_select_features(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    world = _World(cfg)
    world.apply_imputation()
    payload, survivors = _vif_stage(world)
    write_json(cfg.output_dir / "vif_report.json", payload, cfg)

    reduced_dir = cfg.output_dir / "reduced"
    reduced_dir.mkdir(parents=True, exist_ok=True)
    keep = survivors + world.observable_names
    entries = []
    for ds in world.datasets:
        reduced = ds.select_channels(keep)
        name = f"{ds.experiment_id}.csv"
        dsmod.write_csv(reduced, reduced_dir / name)
        entries.append(
            dsmod.ManifestEntry(
                experiment_id=ds.experiment_id, path=name, sample_rate_hz=ds.sample_rate_hz
            )
        )
    dsmod.save_manifest(
        dsmod.ExperimentManifest(tuple(entries), root=reduced_dir), reduced_dir / "manifest.json"
    )
    dsmod.save_schema(
        [c for c in world.schema if c.name in keep], reduced_dir / "schema.json"
    )
    print(f"{len(survivors)} of {len(world.input_names)} input features survive")
    return 0


def _dist_stage(world: _World) -> int:
    """Shift distances over the configured splits; returns the result count."""
    cfg = world.cfg
    by_id = {ds.experiment_id: ds for ds in world.datasets}
    id_splits = draw_splits(list(by_id), cfg.lpocv.p, cfg.lpocv.repeats, cfg.seed)
    results = split_shift_report(
        [([by_id[i] for i in tr], [by_id[i] for i in te]) for tr, te in id_splits],
        world.observable_names,
    )
    write_json(cfg.output_dir / "dist_report.json", {"results": results}, cfg)
    header = "channel,pair,mean_distance,ci95_halfwidth,repeats"
    with _csv_artifact(cfg.output_dir / "dist_report.csv", header, cfg) as fh:
        for r in results:
            fh.write(
                f"{r.channel},{r.pair_label},{r.mean_distance:.17g},"
                f"{r.ci95_halfwidth:.17g},{r.repeats}\n"
            )
    return len(results)


def cmd_dist_report(args) -> int:
    world = _World(load_run_config(args.config, args.seed))
    world.check_split_size()
    world.apply_imputation()
    print(f"wrote {_dist_stage(world)} distance summaries")
    return 0


def cmd_fit(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    world = _World(cfg)
    world.apply_imputation()
    _, survivors = _vif_stage(world)
    model = fit_on_datasets(world.datasets, world.fit_config(survivors))
    save_model(model, cfg.output_dir / "model.json")
    print(
        f"fit model: {model.state_dim} observables, {model.input_dim} inputs, "
        f"svd rank {model.svd_rank_used}"
    )
    return 0


def cmd_cv(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    world = _World(cfg)
    world.check_split_size()
    world.apply_imputation()
    _, survivors = _vif_stage(world)
    report, envelope = run_lpocv(
        world.datasets,
        world.fit_config(survivors),
        p=cfg.lpocv.p,
        repeats=cfg.lpocv.repeats,
        seed=cfg.seed,
    )
    write_json(cfg.output_dir / "cv_report.json", {"cv": report, "envelope": envelope}, cfg)
    for obs in report.observables:
        agg = report.aggregates["r2_test"][obs]
        print(f"{obs}: test R^2 {agg.mean:.4f} +/- {agg.ci95:.4f}")
    return 0


def _load_envelope(cfg: RunConfig, observables: Sequence[str]) -> UncertaintyEnvelope:
    path = cfg.output_dir / "cv_report.json"
    if not path.exists():
        raise DataError(f"{path} not found; run the cv stage first")
    try:
        envelope = UncertaintyEnvelope(**read_json_object(path)["envelope"])
        for name in observables:  # every bound needs a numeric half-width
            float(envelope.half_width(name))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(str(path), f"no uncertainty envelope: {exc!r}") from None
    return envelope


def _predict_artifacts(
    cfg: RunConfig, world: _World, model, envelope, experiment_id: str | None
) -> dict:
    by_id = {ds.experiment_id: ds for ds in world.datasets}
    exp_id = experiment_id or cfg.predict_experiment or world.datasets[0].experiment_id
    if exp_id not in by_id:
        raise DataError(f"experiment {exp_id!r} not in manifest")
    ds = by_id[exp_id]
    obs = ds.matrix_for(model.observable_names)
    inputs = ds.matrix_for(model.input_names)[:-1].T
    truth = obs[1:]
    bounded = bound_predictions(model, envelope, obs[0], inputs, ground_truth=truth)

    t = np.arange(1, ds.row_count)
    header = ["t"]
    cols = [t]
    for j, name in enumerate(model.observable_names):
        header += [f"{name}_pred", f"{name}_lower", f"{name}_upper", f"{name}_measured", f"{name}_violation"]
        violated = np.zeros(t.size)
        for step, _, _ in bounded.violations.get(name, ()):
            violated[step] = 1.0
        cols += [
            bounded.predictions[:, j],
            bounded.lower[:, j],
            bounded.upper[:, j],
            truth[:, j],
            violated,
        ]
    _write_table(cfg.output_dir / "bounded_predictions.csv", header, np.column_stack(cols), cfg)

    geometry_written = False
    positions = [c for c in cfg.position_channels if c in ds.channel_names]
    if len(positions) == len(cfg.position_channels):
        geo_header = ["t"] + list(positions) + [f"{n}_pred" for n in model.observable_names]
        geo_cols = [t] + [ds.column(n)[1:] for n in positions] + [
            bounded.predictions[:, j] for j in range(len(model.observable_names))
        ]
        _write_table(cfg.output_dir / "geometry.csv", geo_header, np.column_stack(geo_cols), cfg)
        geometry_written = True

    total = t.size * len(model.observable_names)
    n_violations = sum(len(v) for v in bounded.violations.values())
    return {
        "experiment_id": exp_id,
        "steps": int(t.size),
        "violations": {k: len(v) for k, v in bounded.violations.items()},
        "within_bounds_fraction": 1.0 - n_violations / total if total else 1.0,
        "geometry_written": geometry_written,
    }


def cmd_predict(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    world = _World(cfg)
    world.apply_imputation()
    model_path = cfg.output_dir / "model.json"
    if not model_path.exists():
        raise DataError(f"{model_path} not found; run the fit stage first")
    model = load_model(model_path)
    envelope = _load_envelope(cfg, model.observable_names)
    summary = _predict_artifacts(cfg, world, model, envelope, args.experiment)
    write_json(cfg.output_dir / "predict_report.json", summary, cfg)
    print(
        f"bounded predictions for {summary['experiment_id']}: "
        f"{summary['within_bounds_fraction']:.3f} within bounds"
    )
    return 0


def _spectrogram_artifacts(cfg: RunConfig, world: _World, model=None) -> dict:
    sg_cfg = cfg.spectrogram
    observable = sg_cfg.observable or world.observable_names[0]
    if observable not in world.observable_names:
        raise DataError(f"spectrogram observable {observable!r} not in schema")
    grid = (sg_cfg.rows, sg_cfg.cols)
    measured = collect_pulse_spectra(world.datasets, observable, sg_cfg.power_channel)
    sg = build_spectrogram(measured, grid=grid, cap_hz=sg_cfg.cap_hz)
    _write_table(
        cfg.output_dir / "spectrogram.csv",
        ["pulse_length_s", "frequency_hz", "intensity"],
        sg.to_csv_rows(),
        cfg,
    )
    summary = {
        "observable": observable,
        "grid": list(grid),
        "nyquist_hz": sg.nyquist_hz,
        "display_cap_hz": sg.display_cap_hz,
        "pulse_length_range_s": [
            float(sg.pulse_length_axis_s[0]),
            float(sg.pulse_length_axis_s[-1]),
        ],
    }
    if model is not None:
        overrides = {
            ds.experiment_id: predict_series(model, ds, cfg.eval_mode)[
                :, list(model.observable_names).index(observable)
            ]
            for ds in world.datasets
        }
        predicted = collect_pulse_spectra(
            world.datasets, observable, sg_cfg.power_channel, values_override=overrides
        )
        sg_model = build_spectrogram(predicted, grid=grid, cap_hz=sg_cfg.cap_hz)
        _write_table(
            cfg.output_dir / "spectrogram_model.csv",
            ["pulse_length_s", "frequency_hz", "intensity"],
            sg_model.to_csv_rows(),
            cfg,
        )
        summary["model_similarity"] = compare_spectrograms(sg, sg_model)
    return summary


def cmd_spectrogram(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    world = _World(cfg)
    world.apply_imputation()
    model = None
    model_path = cfg.output_dir / "model.json"
    if model_path.exists():
        model = load_model(model_path)
    summary = _spectrogram_artifacts(cfg, world, model)
    write_json(cfg.output_dir / "spectrogram.json", summary, cfg)
    if "model_similarity" in summary:
        print(f"spectrogram similarity (measured vs model): {summary['model_similarity']:.4f}")
    else:
        print("wrote measured spectrogram (no model file present)")
    return 0


def cmd_freq_study(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    world = _World(cfg)
    world.check_split_size()
    world.apply_imputation()
    _, survivors = _vif_stage(world)
    rows = frequency_study(
        world.datasets,
        world.fit_config(survivors),
        factors=cfg.decimation_factors,
        p=cfg.lpocv.p,
        repeats=cfg.lpocv.repeats,
        seed=cfg.seed,
    )
    write_json(cfg.output_dir / "freq_study.json", {"rows": rows}, cfg)
    header = "factor,sample_rate_hz,observable,r2_mean,r2_ci95,rmse_mean,rmse_ci95"
    with _csv_artifact(cfg.output_dir / "freq_study.csv", header, cfg) as fh:
        for row in rows:
            for obs in world.observable_names:
                r2a = row.r2_test[obs]
                rma = row.rmse_test[obs]
                fh.write(
                    f"{row.factor},{row.sample_rate_hz:.17g},{obs},"
                    f"{r2a.mean:.17g},{r2a.ci95:.17g},{rma.mean:.17g},{rma.ci95:.17g}\n"
                )
    print(f"frequency study over factors {list(cfg.decimation_factors)} complete")
    return 0


def cmd_pipeline(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    world = _World(cfg)
    world.check_split_size()
    stages: list[str] = []

    _ingest_stage(world)
    stages.append("ingest")

    impute_counts = world.apply_imputation()
    write_json(cfg.output_dir / "impute_report.json", {"channels": impute_counts}, cfg)
    stages.append("impute")

    vif_payload, survivors = _vif_stage(world)
    write_json(cfg.output_dir / "vif_report.json", vif_payload, cfg)
    stages.append("select-features")

    _dist_stage(world)
    stages.append("dist-report")

    fit_cfg = world.fit_config(survivors)
    report, envelope = run_lpocv(
        world.datasets, fit_cfg, p=cfg.lpocv.p, repeats=cfg.lpocv.repeats, seed=cfg.seed
    )
    write_json(cfg.output_dir / "cv_report.json", {"cv": report, "envelope": envelope}, cfg)
    model = fit_on_datasets(world.datasets, fit_cfg)
    save_model(model, cfg.output_dir / "model.json")
    stages.append("cv")

    predict_summary = _predict_artifacts(cfg, world, model, envelope, None)
    write_json(cfg.output_dir / "predict_report.json", predict_summary, cfg)
    stages.append("predict")

    spectro_summary = _spectrogram_artifacts(cfg, world, model)
    write_json(cfg.output_dir / "spectrogram.json", spectro_summary, cfg)
    stages.append("spectrogram")

    write_json(
        cfg.output_dir / "pipeline_report.json",
        {
            "stages": stages,
            "experiments": sorted(ds.experiment_id for ds in world.datasets),
            "surviving_inputs": survivors,
            "test_r2": {
                obs: report.aggregates["r2_test"][obs].mean for obs in report.observables
            },
        },
        cfg,
    )
    print(f"pipeline complete: {', '.join(stages)}")
    return 0


def cmd_bench(args) -> int:
    cfg = load_run_config(args.config, args.seed) if args.config else None
    bench_cfg = cfg.bench if cfg else BenchConfig()
    if args.points is not None:
        if args.points < 1:
            raise ConfigError(f"--points must be at least 1, got {args.points}")
        bench_cfg = replace(bench_cfg, points=args.points)
    report = throughput_benchmark(bench_cfg, seed=cfg.seed if cfg else (args.seed or 0))
    out_dir = cfg.output_dir if cfg else Path(".")
    write_json(out_dir / "bench_report.json", report, cfg)
    print(
        f"fit {report.fit_us_per_point:.3f} us/pt (target {report.fit_target_us}), "
        f"rollout {report.rollout_us_per_point:.3f} us/pt (target {report.rollout_target_us})"
    )
    return 0 if report.fit_within_target and report.rollout_within_target else 4


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
    synth.add_argument("--rate", type=float, default=100.0)
    synth.add_argument("--dropout", type=float, default=0.05)
    synth.set_defaults(func=cmd_synth)

    def with_config(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=func)
        return p

    with_config("ingest", "validate and report on the experiment files", cmd_ingest)
    with_config("select-features", "collinearity screening of inputs", cmd_select_features)
    with_config("dist-report", "train/test distribution-shift distances", cmd_dist_report)
    with_config("fit", "fit a surrogate on all experiments", cmd_fit)
    with_config("cv", "leave-p-out cross-validation", cmd_cv)
    pred = with_config("predict", "bounded rollout for one experiment", cmd_predict)
    pred.add_argument("--experiment", default=None)
    with_config("spectrogram", "pulse-length spectrogram artifacts", cmd_spectrogram)
    with_config("freq-study", "accuracy versus recording rate", cmd_freq_study)
    with_config("pipeline", "run every stage in order", cmd_pipeline)

    bench = sub.add_parser("bench", help="throughput benchmark")
    bench.add_argument("--config", default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--points", type=int, default=None)
    bench.set_defaults(func=cmd_bench)

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
