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
    decimate,
    impute_off_state,
    ingest_csv,
    load_datasets,
    load_manifest,
    load_schema,
    write_csv,
)
from .dmdc import SnapshotSet, StateSpaceModel, build_snapshots, fit, load_model, rollout, save_model
from .errors import ConfigError, DataError, NumericError
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
    frequency_study,
    run_lpocv,
)
from .vif import VifSelectionReport, select_features
from .wasserstein import split_shift_report

__version__ = "0.1.0"

# The synthetic plant, and the G-code parser it imports, load on first use
# (PEP 562), so that importing the package for a pipeline stage skips both.
_PLANT_NAMES = ("PlantSpec", "demo_plant", "make_demo_experiments", "random_stable_plant", "simulate")


def __getattr__(name: str):
    if name not in _PLANT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import plant

    return getattr(plant, name)


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
    "bound_predictions",
    "build_snapshots",
    "build_spectrogram",
    "collect_pulse_spectra",
    "compare_spectrograms",
    "decimate",
    "demo_plant",
    "fit",
    "frequency_study",
    "impute_off_state",
    "ingest_csv",
    "load_datasets",
    "load_manifest",
    "load_model",
    "load_schema",
    "make_demo_experiments",
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
    "write_csv",
    "write_json",
    "__version__",
]
