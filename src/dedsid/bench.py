"""Throughput measurement for fitting and rollout on synthetic data."""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from .dmdc import build_snapshots, fit, rollout
from .plant import gaussian_inputs, random_stable_plant, simulate

# The benchmark plant's observable and input counts, and the time per point
# that fit and rollout must each stay within.
Q, P = 3, 21
FIT_TARGET_US, ROLLOUT_TARGET_US = 25.0, 150.0


@dataclass(frozen=True)
class BenchReport:
    points: int
    q: int
    p: int
    fit_us_per_point: float
    rollout_us_per_point: float
    fit_target_us: float
    rollout_target_us: float
    fit_within_target: bool
    rollout_within_target: bool
    hardware: str


def throughput_benchmark(points: int = 1_000_000, seed: int = 0) -> BenchReport:
    """Time one fit (snapshot set-up included) and one self-fed rollout over
    ``points`` samples of a ``Q``-observable, ``P``-input plant.

    Data comes from a seeded random stable plant under white-noise inputs;
    wall-clock per point is the headline number because that is what decides
    whether the surrogate can keep up with a build in progress.
    """
    spec = random_stable_plant(Q, P, seed=seed, radius=0.9)
    inputs = gaussian_inputs(
        [c.name for c in spec.input_channels], points, 100.0, seed=seed + 1
    )
    ds = simulate(spec, inputs, seed=seed + 2).dataset

    t0 = time.perf_counter()
    model = fit(build_snapshots([ds], list(spec.input_names), list(spec.observable_names)))
    fit_seconds = time.perf_counter() - t0

    y0 = ds.matrix_for(spec.observable_names)[0]
    u = ds.matrix_for(spec.input_names)[:-1].T
    t0 = time.perf_counter()
    rollout(model, y0, u)
    rollout_seconds = time.perf_counter() - t0

    fit_us = fit_seconds / points * 1e6
    roll_us = rollout_seconds / max(1, u.shape[1]) * 1e6
    return BenchReport(
        points=points,
        q=Q,
        p=P,
        fit_us_per_point=fit_us,
        rollout_us_per_point=roll_us,
        fit_target_us=FIT_TARGET_US,
        rollout_target_us=ROLLOUT_TARGET_US,
        fit_within_target=fit_us <= FIT_TARGET_US,
        rollout_within_target=roll_us <= ROLLOUT_TARGET_US,
        hardware=f"{platform.machine()} / {platform.processor() or 'unknown-cpu'} / "
        f"python {platform.python_version()} / numpy {np.__version__}",
    )
