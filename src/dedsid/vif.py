"""Collinearity screening of input features by variance inflation factor.

A feature's VIF is 1/(1 - R^2) for the least-squares regression of that
feature on all the others. Exactly dependent features come out infinite;
independent ones sit near 1. Selection removes the worst offender one at a
time because VIFs are joint properties: eliminating one feature changes
everyone else's score, so batch removal over-prunes. Every regression and
rank is read off one R factor of the feature matrix, so after that one QR
no step touches the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import VifConfig
from .errors import EmptySurvivorSet

_EPS = float(np.finfo(float).eps)
# VIFs within this relative distance of the maximum tie. Two active columns
# always have equal VIFs, so which one reads higher is down to rounding.
_TIE = 1e-9


def _rank(r: np.ndarray, n: int) -> int:
    """Numerical rank of the ``n``-row matrix with R factor ``r``: singular
    values above eps * max(n, k) times the largest, the pseudoinverse cutoff."""
    s = np.linalg.svd(r, compute_uv=False)
    return int(np.count_nonzero(s > _EPS * max(n, r.shape[1]) * s[:1]))


def _all_vifs(r: np.ndarray, colsum: np.ndarray, n: int) -> np.ndarray:
    """VIF of every column of the ``n``-row matrix Z = QR from ``r``.

    The columns of ``r`` have the inner products of Z's, so each regression
    of one column on the others is k rows long; the total sum of squares
    comes from the column sums. The solve is the pseudoinverse (lstsq, with
    Z's own cutoff), never inv(R): an exactly dependent set gives +inf.
    """
    k = r.shape[1]
    if k == 1:
        # A lone feature regresses on nothing; define its VIF as the floor.
        return np.asarray([1.0])
    out = np.full(k, np.inf)
    for j in range(k):
        y = r[:, j]
        sst = float(y @ y) - float(colsum[j]) ** 2 / max(n, 1)
        if sst <= 0.0:
            continue
        others = np.delete(r, j, axis=1)
        coef, *_ = np.linalg.lstsq(others, y, rcond=_EPS * max(n, k - 1))
        resid = y - others @ coef
        r_squared = 1.0 - float(resid @ resid) / sst
        if r_squared >= 1.0 - _EPS:
            continue
        out[j] = 1.0 / (1.0 - r_squared)
    return out


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
    remove_above: float = VifConfig.remove_above,
    accept_below: float = VifConfig.accept_below,
) -> VifSelectionReport:
    """Iteratively drop the highest-VIF feature until all scores sit below
    ``accept_below``.

    ``remove_above`` marks the definitely-dependent band and is recorded with
    the report; the loop keeps removing through the in-between band as well,
    since stopping inside it would leave the termination condition
    unsatisfiable. Ties on the maximum (typically several infinities, or
    finite VIFs within a relative 1e-9 of it) break toward the earliest
    column, so the order follows the data, not the rounding. The matrix
    rank is recomputed with every iteration as a cross-check on the
    elimination.
    """
    features = np.asarray(features, dtype=float)
    names = list(names)
    if features.ndim != 2 or features.shape[1] != len(names):
        raise ValueError("feature matrix and name list disagree")
    if len(names) == 0:
        raise EmptySurvivorSet()

    n = features.shape[0]
    r = np.linalg.qr(features, mode="r")
    colsum = features.sum(axis=0)
    active = list(range(len(names)))
    iterations: list[VifIteration] = []
    while True:
        current = r[:, active]
        vifs = _all_vifs(current, colsum[active], n)
        rank = _rank(current, n)
        vif_map = {names[g]: float(vifs[j]) for j, g in enumerate(active)}
        if np.nanmax(vifs) < accept_below:
            break
        if len(active) == 1:
            raise EmptySurvivorSet()
        worst = int(np.argmax(vifs >= np.nanmax(vifs) * (1.0 - _TIE)))
        iterations.append(
            VifIteration(
                iteration_index=len(iterations) + 1,
                column_count=len(active),
                matrix_rank=rank,
                vif_values=vif_map,
                excluded_feature=names[active[worst]],
            )
        )
        del active[worst]

    return VifSelectionReport(
        iterations=tuple(iterations),
        surviving_features=tuple(names[g] for g in active),
        final_vif=vif_map,
        final_rank=rank,
        remove_above=float(remove_above),
        accept_below=float(accept_below),
    )
