"""System identification for deposition experiments.

Builds linear state-space surrogates of multichannel process recordings:
feature curation, model fitting, cross-validated uncertainty envelopes,
distribution-shift reporting, and spectral validation, plus a synthetic
plant for end-to-end exercises.
"""

from .artifacts import to_plain, write_json
from .dataset import (
    ChannelSpec,
    ExperimentManifest,
    ManifestEntry,
    StandardizationParams,
    TimeSeriesDataset,
    apply_standardizer,
    decimate,
    fit_standardizer,
    fit_standardizer_pooled,
    impute_off_state,
    ingest_csv,
    invert_standardizer,
    load_datasets,
    load_manifest,
    load_schema,
    write_csv,
)
from .dmdc import SnapshotSet, StateSpaceModel, build_snapshots, fit, load_model, rollout, save_model
from .errors import ConfigError, DataError, NumericError
from .plant import PlantSpec, demo_plant, make_demo_experiments, random_stable_plant, simulate
from .spectral import (
    Spectrogram,
    build_spectrogram,
    collect_pulse_spectra,
    compare_spectrograms,
    pulse_spectra,
    segment_pulses,
)
from .validation import (
    FitConfig,
    UncertaintyEnvelope,
    bound_predictions,
    fit_on_datasets,
    frequency_study,
    run_lpocv,
)
from .vif import VifSelectionReport, matrix_rank, select_features, vif_single
from .wasserstein import split_shift_report, uniform_benchmark, wasserstein_1d

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "ConfigError",
    "DataError",
    "ExperimentManifest",
    "FitConfig",
    "ManifestEntry",
    "NumericError",
    "PlantSpec",
    "SnapshotSet",
    "Spectrogram",
    "StandardizationParams",
    "StateSpaceModel",
    "TimeSeriesDataset",
    "UncertaintyEnvelope",
    "VifSelectionReport",
    "apply_standardizer",
    "bound_predictions",
    "build_snapshots",
    "build_spectrogram",
    "collect_pulse_spectra",
    "compare_spectrograms",
    "decimate",
    "demo_plant",
    "fit",
    "fit_on_datasets",
    "fit_standardizer",
    "fit_standardizer_pooled",
    "frequency_study",
    "impute_off_state",
    "ingest_csv",
    "invert_standardizer",
    "load_datasets",
    "load_manifest",
    "load_model",
    "load_schema",
    "make_demo_experiments",
    "matrix_rank",
    "pulse_spectra",
    "random_stable_plant",
    "rollout",
    "run_lpocv",
    "save_model",
    "segment_pulses",
    "select_features",
    "simulate",
    "split_shift_report",
    "to_plain",
    "uniform_benchmark",
    "vif_single",
    "wasserstein_1d",
    "write_csv",
    "write_json",
    "__version__",
]
