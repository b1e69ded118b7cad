"""Throughput measurement for fitting and rollout on synthetic data."""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from .dmdc import build_snapshots, fit, rollout
from .plant import gaussian_inputs, random_stable_plant, simulate


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

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "q": self.q,
            "p": self.p,
            "fit_us_per_point": self.fit_us_per_point,
            "rollout_us_per_point": self.rollout_us_per_point,
            "fit_target_us": self.fit_target_us,
            "rollout_target_us": self.rollout_target_us,
            "fit_within_target": self.fit_within_target,
            "rollout_within_target": self.rollout_within_target,
            "hardware": self.hardware,
        }


def throughput_benchmark(
    points: int = 1_000_000,
    q: int = 3,
    p: int = 21,
    seed: int = 0,
    fit_target_us: float = 25.0,
    rollout_target_us: float = 150.0,
) -> BenchReport:
    """Time one fit (snapshot set-up included) and one self-fed rollout over
    ``points`` samples.

    Data comes from a seeded random stable plant under white-noise inputs;
    wall-clock per point is the headline number because that is what decides
    whether the surrogate can keep up with a build in progress.
    """
    spec = random_stable_plant(q, p, seed=seed, radius=0.9)
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
        q=q,
        p=p,
        fit_us_per_point=fit_us,
        rollout_us_per_point=roll_us,
        fit_target_us=fit_target_us,
        rollout_target_us=rollout_target_us,
        fit_within_target=fit_us <= fit_target_us,
        rollout_within_target=roll_us <= rollout_target_us,
        hardware=f"{platform.machine()} / {platform.processor() or 'unknown-cpu'} / "
        f"python {platform.python_version()} / numpy {np.__version__}",
    )
