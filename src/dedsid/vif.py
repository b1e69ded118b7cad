"""Collinearity screening of input features by variance inflation factor.

A feature's VIF is 1/(1 - R^2) for the least-squares regression of that
feature on all the others. Exactly dependent features come out infinite;
independent ones sit near 1. Selection removes the worst offender one at a
time because VIFs are joint properties: eliminating one feature changes
everyone else's score, so batch removal over-prunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptySurvivorSet

_EPS = float(np.finfo(float).eps)


def matrix_rank(features: np.ndarray, tolerance: float | None = None) -> int:
    """Numerical rank: singular values above ``tolerance`` times the largest.

    Default tolerance is machine epsilon times the larger matrix dimension,
    the usual pseudoinverse cutoff. Rank equal to the column count is
    necessary but not sufficient for well-conditioned features, which is why
    selection tracks both rank and VIFs.
    """
    features = np.asarray(features, dtype=float)
    if features.size == 0:
        return 0
    s = np.linalg.svd(features, compute_uv=False)
    if s[0] == 0.0:
        return 0
    if tolerance is None:
        tolerance = _EPS * max(features.shape)
    return int(np.count_nonzero(s > tolerance * s[0]))


def vif_single(features: np.ndarray, index: int) -> float:
    """VIF of one column against the rest; +inf for exact dependence.

    Columns are expected zero-mean (standardized); the regression carries no
    intercept. The solve goes through the SVD pseudoinverse (lstsq), never the
    normal equations, so near-singular designs degrade gracefully into large
    finite values instead of blowing up.
    """
    features = np.asarray(features, dtype=float)
    n, k = features.shape
    if k < 2:
        raise ValueError("vif_single needs at least two columns")
    if not 0 <= index < k:
        raise IndexError(f"column index {index} out of range for {k} columns")
    y = features[:, index]
    others = np.delete(features, index, axis=1)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0.0:
        return float("inf")
    coef, *_ = np.linalg.lstsq(others, y, rcond=None)
    ssr = float(np.sum((y - others @ coef) ** 2))
    r_squared = 1.0 - ssr / sst
    if r_squared >= 1.0 - _EPS:
        return float("inf")
    return 1.0 / (1.0 - r_squared)


def _all_vifs(features: np.ndarray) -> np.ndarray:
    k = features.shape[1]
    if k == 1:
        # A lone feature regresses on nothing; define its VIF as the floor.
        return np.asarray([1.0])
    return np.asarray([vif_single(features, j) for j in range(k)])


@dataclass(frozen=True)
class VifIteration:
    """State at one removal step, before the feature leaves."""

    iteration_index: int
    column_count: int
    matrix_rank: int
    vif_values: Mapping[str, float]
    excluded_feature: str | None


@dataclass(frozen=True)
class VifSelectionReport:
    iterations: tuple[VifIteration, ...]
    surviving_features: tuple[str, ...]
    final_vif: Mapping[str, float]
    final_rank: int
    remove_above: float
    accept_below: float


def select_features(
    features: np.ndarray,
    names: Sequence[str],
    remove_above: float = 10.0,
    accept_below: float = 5.0,
) -> VifSelectionReport:
    """Iteratively drop the highest-VIF feature until all scores sit below
    ``accept_below``.

    ``remove_above`` marks the definitely-dependent band and is recorded with
    the report; the loop keeps removing through the in-between band as well,
    since stopping inside it would leave the termination condition
    unsatisfiable. Ties on the maximum (typically several infinities) break
    toward the earliest column so runs are reproducible. The matrix rank is
    recomputed with every iteration as a cross-check on the elimination.
    """
    features = np.asarray(features, dtype=float)
    names = list(names)
    if features.ndim != 2 or features.shape[1] != len(names):
        raise ValueError("feature matrix and name list disagree")
    if len(names) == 0:
        raise EmptySurvivorSet()

    active = list(range(len(names)))
    iterations: list[VifIteration] = []
    while True:
        current = features[:, active]
        vifs = _all_vifs(current)
        vif_map = {names[g]: float(vifs[j]) for j, g in enumerate(active)}
        if np.nanmax(vifs) < accept_below:
            final_rank = matrix_rank(current)
            break
        if len(active) == 1:
            raise EmptySurvivorSet()
        worst = int(np.argmax(vifs))
        iterations.append(
            VifIteration(
                iteration_index=len(iterations) + 1,
                column_count=len(active),
                matrix_rank=matrix_rank(current),
                vif_values=vif_map,
                excluded_feature=names[active[worst]],
            )
        )
        del active[worst]

    return VifSelectionReport(
        iterations=tuple(iterations),
        surviving_features=tuple(names[g] for g in active),
        final_vif=vif_map,
        final_rank=final_rank,
        remove_above=float(remove_above),
        accept_below=float(accept_below),
    )
