"""Collinearity screening of input features by variance inflation factor.

A feature's VIF is 1/(1 - R^2) for the least-squares regression of that
feature on all the others. Exactly dependent features come out infinite;
independent ones sit near 1. Selection removes the worst offender one at a
time because VIFs are joint properties: eliminating one feature changes
everyone else's score, so batch removal over-prunes. Every regression and
rank is read off one k x k R factor, which ``screen_inputs`` takes from the
snapshot summaries, so no step touches the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import VifConfig
from .dmdc import SnapshotSet, standardized_stack
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


def _all_vifs(r: np.ndarray, n: int) -> np.ndarray:
    """VIF of every column of the centered ``n``-row matrix Z = QR from ``r``.

    The columns of ``r`` have the inner products of Z's, so each regression
    of one column on the others is k rows long, and a column's total sum of
    squares is its own inner product. The solve is the pseudoinverse
    (lstsq, with Z's own cutoff), never inv(R): an exactly dependent set
    gives +inf, and a lone column regresses on nothing and scores 1.
    """
    k = r.shape[1]
    out = np.full(k, np.inf)
    for j in range(k):
        y = r[:, j]
        sst = float(y @ y)
        if sst <= 0.0:
            continue
        others = np.delete(r, j, axis=1)
        coef, *_ = np.linalg.lstsq(others, y, rcond=_EPS * max(n, k - 1))
        resid = y - others @ coef
        ssr = float(resid @ resid)
        # 1 / (1 - R^2) is sst / ssr; through R^2 it would cancel, since
        # doubles just below 1 sit eps / 2 apart.
        if ssr <= _EPS * sst:
            continue
        out[j] = sst / ssr
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
    accept_below: float


def select_features(
    factor: np.ndarray,
    rows: int,
    names: Sequence[str],
    accept_below: float = VifConfig.accept_below,
) -> VifSelectionReport:
    """Iteratively drop the highest-VIF feature until all scores sit below
    ``accept_below``.

    ``factor`` is an R factor (R^T R = Z^T Z) of the ``rows`` x k matrix Z
    of centered features, one column per name. Ties on the maximum
    (typically several infinities, or finite VIFs within a relative 1e-9 of
    it) break toward the earliest column, so the order follows the data, not
    the rounding. The matrix rank is recomputed with every iteration as a
    cross-check on the elimination.
    """
    r = np.asarray(factor, dtype=float)
    names = list(names)
    if r.ndim != 2 or r.shape[1] != len(names):
        raise ValueError("factor and name list disagree")
    if len(names) == 0:
        raise EmptySurvivorSet()

    active = list(range(len(names)))
    iterations: list[VifIteration] = []
    while True:
        current = r[:, active]
        vifs = _all_vifs(current, rows)
        rank = _rank(current, rows)
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
        accept_below=float(accept_below),
    )


def screen_inputs(
    snapshots: SnapshotSet, config: VifConfig
) -> tuple[list[str], VifSelectionReport]:
    """The constant inputs of ``snapshots``, and ``select_features`` on the others.

    Both read the summaries of every row, never the rows. An input is
    constant when its pooled M2 is exactly 0, which ``SnapshotSet`` makes
    exact. The others' standardized factor columns and last rows are reduced
    by one QR behind the intercept, which centers them exactly even where a
    column's offset dwarfs its spread.
    """
    snapshots.require_finite()
    rows, mean, m2 = snapshots.pooled_moments()
    q = len(snapshots.observable_names)
    keep = [j for j in range(q, len(m2)) if m2[j] != 0.0]
    names = [snapshots.input_names[j - q] for j in keep]
    mean, scale = mean[keep], np.sqrt(m2[keep] / rows)
    factors = snapshots.factors[:, :, [0, *(1 + j for j in keep)]]
    stacked = standardized_stack(factors, snapshots.shifts[:, keep], mean, scale)
    last = (snapshots.last_rows[:, keep] - mean) / scale
    stacked = np.vstack([stacked, np.column_stack([np.ones(len(last)), last])])
    factor = np.linalg.qr(stacked, mode="r")[1:, 1:]
    report = select_features(factor, rows, names, config.accept_below)
    return [name for name in snapshots.input_names if name not in names], report
