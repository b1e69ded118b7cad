"""Layer spans for dedsid, recorded from outside the package.

``install`` wraps every public function of each layer module. The modules
bind each other's functions by name at import time (``validation`` holds its
own ``rollout``, ``cli`` its own ``run_lpocv``), so every dedsid module that
holds a wrapped function gets the wrapper under the same name. Spans stay in
memory as ``[name, parent, start, end, counts]`` with the parent's index and
are written once, when the traced process ends. ``span_totals`` sums them per
process and ``layer_metrics`` turns the sums into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("dataset", "vif", "wasserstein", "dmdc", "validation", "spectral", "plant", "gcode", "cli")


def _impute_rewritten(a, result):
    before = a["ds"].column(a["channel"])
    return {"samples_rewritten": int(np.count_nonzero(before != result.column(a["channel"])))}


# Work counted at a span boundary, from the bound arguments and the result.
COUNTERS = {
    "dataset.ingest_csv": lambda a, r: {
        "rows": r[0].row_count,
        "bytes": os.path.getsize(a["path"]),
    },
    "dataset.impute_off_state": _impute_rewritten,
    "dataset.apply_standardizer": lambda a, r: {"rows": a["ds"].row_count},
    "vif.select_features": lambda a, r: {"iterations": len(r.iterations)},
    "vif.vif_single": lambda a, r: {"rows": np.shape(a["features"])[0]},
    "wasserstein.wasserstein_1d": lambda a, r: {"samples": np.size(a["a"]) + np.size(a["b"])},
    "dmdc.build_snapshots": lambda a, r: {"pairs": r.pair_count},
    "dmdc.fit": lambda a, r: {"pairs": a["snapshots"].pair_count},
    "dmdc.rollout": lambda a, r: {"steps": r.shape[1]},
    "validation.run_lpocv": lambda a, r: {"folds": len(r[0].folds)},
    "spectral.segment_pulses": lambda a, r: {"pulses": len(r)},
    "spectral.pulse_spectra": lambda a, r: {
        "pulses_averaged": sum(s.pulses_averaged for s in r.values())
    },
    "plant.simulate": lambda a, r: {"steps": r.dataset.row_count},
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dedsid.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "dedsid" and not name.startswith("dedsid."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def dump(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path: str | Path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)


def _inclusive(spans, names) -> float:
    """Busy time of spans in ``names``, nested ones counted once."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[1]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            total += span[3] - span[2]
    return total


def _self_times(spans) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def span_totals(spans) -> dict[str, float]:
    """Additive per-layer quantities of one traced process."""
    own = _self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span, s in zip(spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        for key, value in (span[4] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def inclusive(*names):
        return _inclusive(spans, set(names))

    return {
        "dataset.ingest_csv.s": inclusive("dataset.ingest_csv"),
        "dataset.ingest_csv.rows": counts.get("dataset.ingest_csv.rows", 0),
        "dataset.ingest_csv.bytes": counts.get("dataset.ingest_csv.bytes", 0),
        "dataset.impute_off_state.s": inclusive("dataset.impute_off_state"),
        "dataset.impute_off_state.samples_rewritten": counts.get(
            "dataset.impute_off_state.samples_rewritten", 0
        ),
        "dataset.standardize.s": inclusive(
            "dataset.fit_standardizer_pooled",
            "dataset.fit_standardizer",
            "dataset.standardizer_from_matrix",
            "dataset.apply_standardizer",
        ),
        "dataset.apply_standardizer.rows": counts.get("dataset.apply_standardizer.rows", 0),
        "dataset.decimate.s": inclusive("dataset.decimate"),
        "dataset.write_csv.s": inclusive("dataset.write_csv"),
        "vif.select_features.s": inclusive("vif.select_features"),
        "vif.select_features.iterations": counts.get("vif.select_features.iterations", 0),
        "vif.vif_single.calls": calls.get("vif.vif_single", 0),
        "vif.vif_single.rows": counts.get("vif.vif_single.rows", 0),
        "wasserstein.split_shift_report.s": inclusive("wasserstein.split_shift_report"),
        "wasserstein.wasserstein_1d.calls": calls.get("wasserstein.wasserstein_1d", 0),
        "wasserstein.wasserstein_1d.samples": counts.get("wasserstein.wasserstein_1d.samples", 0),
        "dmdc.build_snapshots.s": inclusive("dmdc.build_snapshots"),
        "dmdc.build_snapshots.pairs": counts.get("dmdc.build_snapshots.pairs", 0),
        "dmdc.fit.s": inclusive("dmdc.fit"),
        "dmdc.fit.calls": calls.get("dmdc.fit", 0),
        "dmdc.fit.pairs": counts.get("dmdc.fit.pairs", 0),
        "dmdc.rollout.s": inclusive("dmdc.rollout"),
        "dmdc.rollout.calls": calls.get("dmdc.rollout", 0),
        "dmdc.rollout.steps": counts.get("dmdc.rollout.steps", 0),
        "validation.run_lpocv.self_s": self_s.get("validation.run_lpocv", 0.0),
        "validation.run_lpocv.folds": counts.get("validation.run_lpocv.folds", 0),
        "validation.fit_on_datasets.self_s": self_s.get("validation.fit_on_datasets", 0.0),
        "validation.predict_series.self_s": self_s.get("validation.predict_series", 0.0),
        "validation.bound_predictions.s": inclusive("validation.bound_predictions"),
        "validation.frequency_study.self_s": self_s.get("validation.frequency_study", 0.0),
        "spectral.collect_pulse_spectra.s": inclusive("spectral.collect_pulse_spectra"),
        "spectral.segment_pulses.pulses": counts.get("spectral.segment_pulses.pulses", 0),
        "spectral.pulse_spectra.pulses_averaged": counts.get(
            "spectral.pulse_spectra.pulses_averaged", 0
        ),
        "spectral.build_spectrogram.s": inclusive("spectral.build_spectrogram"),
        "spectral.compare_spectrograms.s": inclusive("spectral.compare_spectrograms"),
        "plant.simulate.s": inclusive("plant.simulate"),
        "plant.simulate.steps": counts.get("plant.simulate.steps", 0),
        "gcode.parse_gcode_subset.s": inclusive("gcode.parse_gcode_subset"),
        "gcode.program_to_timeseries.s": inclusive("gcode.program_to_timeseries"),
        "cli.self_s": sum(s for span, s in zip(spans, own) if span[0].startswith("cli.")),
    }


def add_totals(parts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(setups: list[dict], rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics: median per set-up plus median per round, then ratios."""
    keys = set(span_totals([])).union(*setups, *rounds)
    t = {
        k: (statistics.median(s.get(k, 0) for s in setups) if setups else 0)
        + (statistics.median(r.get(k, 0) for r in rounds) if rounds else 0)
        for k in keys
    }
    out = dict(t)
    out["dataset.ingest_csv.mb_per_s"] = _ratio(
        t["dataset.ingest_csv.bytes"], t["dataset.ingest_csv.s"], 1e-6
    )
    out["dmdc.fit.ns_per_pair"] = _ratio(t["dmdc.fit.s"], t["dmdc.fit.pairs"], 1e9)
    out["dmdc.rollout.ns_per_step"] = _ratio(t["dmdc.rollout.s"], t["dmdc.rollout.steps"], 1e9)
    out["spectral.pulse_yield"] = _ratio(
        t["spectral.pulse_spectra.pulses_averaged"], t["spectral.segment_pulses.pulses"]
    )
    return out
