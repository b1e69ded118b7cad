"""System identification for deposition experiments.

Builds linear state-space surrogates of multichannel process recordings:
feature curation, model fitting, cross-validated uncertainty envelopes,
distribution-shift reporting, and spectral validation, plus a synthetic
plant for end-to-end exercises.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it. A module loads on first
# use of one of its names (PEP 562), so that importing one module, say
# ``dedsid.config`` or ``dedsid.cli``, loads only what that module imports.
_EXPORTS = {
    "artifacts": ("to_plain", "write_json"),
    "config": ("FitConfig",),
    "dataset": (
        "ChannelSpec",
        "ExperimentManifest",
        "ManifestEntry",
        "ParseCache",
        "StandardizationParams",
        "TimeSeriesDataset",
        "decimate",
        "impute_off_state",
        "ingest_csv",
        "load_datasets",
        "load_manifest",
        "load_schema",
        "write_csv",
    ),
    "dmdc": (
        "SnapshotSet",
        "StateSpaceModel",
        "build_snapshots",
        "fit",
        "load_model",
        "rollout",
        "save_model",
    ),
    "errors": ("ConfigError", "DataError", "NumericError"),
    "plant": ("PlantSpec", "demo_plant", "make_demo_experiments", "random_stable_plant", "simulate"),
    "spectral": (
        "Spectrogram",
        "build_spectrogram",
        "collect_pulse_spectra",
        "compare_spectrograms",
        "pulse_spectra",
        "segment_pulses",
    ),
    "validation": (
        "UncertaintyEnvelope", "bound_predictions", "draw_splits", "frequency_study", "run_lpocv"
    ),
    "vif": ("VifSelectionReport", "screen_inputs", "select_features"),
    "wasserstein": ("split_shift_report",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


__all__ = sorted(_MODULE_OF) + ["__version__"]
